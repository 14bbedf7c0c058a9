//! The controlled hybrid simulation: broadcast slots + batching pool under
//! an online control plane.
//!
//! [`ControlledSim`] re-runs the §1 hybrid as a discrete-event simulation
//! on [`sb_sim::Engine`], with these event kinds:
//!
//! * **Arrive** — a viewer requests a title. Hot titles (committed in the
//!   [`ChannelAllocator`]) are served by the periodic broadcast: the wait
//!   is the time to the slot's next first-fragment cycle, at most `D₁`.
//!   Cold titles go through [`AdmissionControl`] into the per-title
//!   batching queues.
//! * **PoolDone** — a multicast stream finishes and frees a channel; the
//!   dispatcher purges reneged waiters and serves the next batch under
//!   the configured [`BatchPolicy`].
//! * **Tick** — the periodic control event. The estimator's scores are
//!   read, matured swaps commit, and (under [`ControlPolicy::Dynamic`])
//!   new swaps are planned toward the current top-`m` titles.
//! * **Fault events** — a [`FaultScript`] replays as first-class events:
//!   `OutageStart`/`OutageEnd` take a broadcast slot out of service and
//!   back (the allocator reacts with its drain-safe machinery, in-flight
//!   sessions are repaired per the run's [`Degradation`] policy, and new
//!   arrivals for the dark title are redirected to the pool); `Restart`
//!   models a server crash-recovery (pending swaps cancelled, estimator
//!   reset); `Churn` makes a seeded fraction of waiting clients abandon.
//!
//! Under [`ControlPolicy::Static`] the tick never plans a swap, so the
//! initial hot set `{0, …, m−1}` stays fixed — exactly the paper's
//! offline split. The workload, the pool, the admission rule, the fault
//! script and every event timestamp are identical between the two
//! policies; the *only* difference is whether reallocation happens. That
//! makes static-vs-dynamic sweeps a controlled experiment, with or
//! without faults.
//!
//! Everything is deterministic: the engine breaks timestamp ties FIFO,
//! queues are per-title vectors ordered by arrival, churn draws come from
//! a per-event seeded stream, and no clocks enter the control path.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes, TickDuration, TickScale, Ticks};

use sb_batching::policy::Pending;
use sb_batching::BatchPolicy;
use sb_core::config::SystemConfig;
use sb_core::error::{Result, SchemeError};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_metrics::{IdLabels, OpLog, Recorder, Registry, Snapshot, TeeRecorder};
use sb_resilience::{Degradation, FaultScript, ResilienceOutcome};
use sb_sim::run::RunParts;
use sb_sim::{parallel_map, shard_of, Engine, EngineStats, RunConfig};
use sb_workload::{Catalog, WorkloadRequest};

use crate::admission::{AdmissionControl, AdmissionDecision, Backoff};
use crate::allocator::ChannelAllocator;
use crate::estimator::PopularityEstimator;

/// Whether the control plane may reassign broadcast slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlPolicy {
    /// The paper's offline split: the initial hot set never changes.
    Static,
    /// Online reallocation: ticks plan hysteretic, drain-safe swaps
    /// toward the estimator's current top titles.
    Dynamic,
}

impl core::fmt::Display for ControlPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ControlPolicy::Static => write!(f, "static"),
            ControlPolicy::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// Configuration of the controlled hybrid server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Catalog size (titles are popularity ranks `0..titles`).
    pub titles: usize,
    /// Number of broadcast slots `m` (each a K-channel skyscraper group).
    pub hot_slots: usize,
    /// Total server network-I/O bandwidth.
    pub total_bandwidth: Mbps,
    /// Fraction of bandwidth reserved for the broadcast half, in `(0, 1)`.
    pub broadcast_fraction: f64,
    /// Skyscraper width cap for the broadcast half.
    pub width: Width,
    /// Batch-selection policy for the pool.
    pub batch: BatchPolicy,
    /// Control-tick period.
    pub tick: Minutes,
    /// Popularity-estimator decay half-life.
    pub half_life: Minutes,
    /// Hysteresis margin a challenger must clear to displace an incumbent.
    pub hysteresis: f64,
    /// Admission ceiling on projected pool load.
    pub admission_ceiling: f64,
    /// If set, over-ceiling requests retry on this backoff schedule
    /// instead of being rejected outright.
    pub admission_retry: Option<Backoff>,
}

impl ControlConfig {
    /// A paper-flavoured default: 40 titles, 8 broadcast slots, W = 52,
    /// MQL pool, 15-minute ticks, 45-minute half-life, 10% hysteresis,
    /// reject-only admission at 3× pool load.
    #[must_use]
    pub fn paper_defaults(total_bandwidth: Mbps) -> Self {
        Self {
            titles: 40,
            hot_slots: 8,
            total_bandwidth,
            broadcast_fraction: 0.6,
            width: Width::Capped(52),
            batch: BatchPolicy::Mql,
            tick: Minutes(15.0),
            half_life: Minutes(45.0),
            hysteresis: 0.1,
            admission_ceiling: 3.0,
            admission_retry: None,
        }
    }
}

/// What came out of a controlled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlReport {
    /// The policy that produced this report.
    pub policy: ControlPolicy,
    /// Total requests offered.
    pub requests: usize,
    /// Requests served by the broadcast half.
    pub served_broadcast: usize,
    /// Requests served by the batching pool.
    pub served_pool: usize,
    /// Requests whose patience ran out (either half), including waiters
    /// lost to churn events.
    pub defected: usize,
    /// Requests turned away by admission control.
    pub rejected: usize,
    /// Defer events issued by admission control (not terminal: a deferred
    /// request is later served, defects, or is rejected).
    pub deferred: usize,
    /// Slot swaps planned by the allocator.
    pub swaps_planned: usize,
    /// Slot swaps that matured and committed.
    pub swaps_committed: usize,
    /// Mean access latency over served requests.
    pub mean_latency: Minutes,
    /// 95th-percentile access latency over served requests.
    pub p95_latency: Minutes,
    /// Worst access latency over served requests.
    pub worst_latency: Minutes,
    /// The committed hot set at the end of the run, in slot order.
    pub final_hot: Vec<usize>,
    /// Channels (display-rate streams) held by the broadcast half.
    pub broadcast_channels: usize,
    /// Channels in the batching pool.
    pub pool_channels: usize,
    /// First-fragment cycle length `D₁` (= worst-case broadcast wait).
    pub cycle: Minutes,
    /// The recovery-side ledger: what the control plane did about the
    /// run's fault script (all-zero for a fault-free run).
    pub resilience: ResilienceOutcome,
}

impl ControlReport {
    /// Every offered request ends served, defected, or rejected.
    #[must_use]
    pub fn accounted(&self) -> usize {
        self.served_broadcast + self.served_pool + self.defected + self.rejected
    }
}

/// A waiter in a pool queue.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    /// Original arrival time (latency is measured from here, so deferral
    /// delay counts against the system).
    arrival: f64,
    /// Absolute patience deadline.
    deadline: f64,
}

/// An in-flight broadcast session, tracked for outage repair.
#[derive(Debug, Clone, Copy)]
struct BroadcastSession {
    /// When the session's first-fragment cycle started.
    start: f64,
    /// When delivery completes (extends when a repair stalls it).
    end: f64,
}

/// Engine event payloads.
enum Ev {
    /// Request `idx` (its index in the caller's slice) arrives; `attempt`
    /// counts admission retries already behind it (0 = fresh arrival).
    Arrive { idx: usize, attempt: u32 },
    /// A pool stream finished, freeing a channel.
    PoolDone,
    /// Periodic control tick.
    Tick,
    /// Outage `idx` of the fault script begins.
    OutageStart { idx: usize },
    /// Outage `idx` of the fault script ends.
    OutageEnd { idx: usize },
    /// Server restart epoch.
    Restart,
    /// Churn event `idx` of the fault script fires.
    Churn { idx: usize },
}

/// How many whole cycles a broadcast admission may slip past burst-lost
/// first fragments before the client is counted as defected.
const MAX_SLIPS: u64 = 64;

/// The fault payload carried by [`RunConfig::faults`] into
/// [`ControlledSim::execute`]: a fault script plus the repair-lateness
/// policy that resolves it.
#[derive(Debug, Clone, Copy)]
pub struct ControlFaults<'f> {
    /// The script of outages, restarts, bursts and churn to replay.
    pub script: &'f FaultScript,
    /// How repair lateness is resolved for cut-into sessions.
    pub degradation: Degradation,
}

/// What [`ControlledSim::execute`] accepts in the fault slot: either the
/// default `()` (no faults, stall-repair — so a plain
/// `RunConfig::new(requests)` compiles) or a [`ControlFaults`] bundle.
pub trait IntoControlFaults {
    /// The script and degradation this payload stands for; `quiet` is
    /// the caller-owned empty script the fault-free case borrows.
    fn resolve<'f>(&'f self, quiet: &'f FaultScript) -> (&'f FaultScript, Degradation);
}

impl IntoControlFaults for () {
    fn resolve<'f>(&'f self, quiet: &'f FaultScript) -> (&'f FaultScript, Degradation) {
        (quiet, Degradation::Stall)
    }
}

impl IntoControlFaults for ControlFaults<'_> {
    fn resolve<'f>(&'f self, _quiet: &'f FaultScript) -> (&'f FaultScript, Degradation) {
        (self.script, self.degradation)
    }
}

/// Everything a controlled run produces, whatever the slot combination —
/// the control plane's analogue of [`sb_sim::RunOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlOutcome {
    /// The control-plane report, merged across shards.
    pub summary: ControlReport,
    /// Engine statistics, summed across shards; `peak_agenda` is the
    /// maximum over shards.
    pub stats: EngineStats,
    /// Each shard's agenda high-water mark, in shard order
    /// (`len == shards`).
    pub shard_peak_agenda: Vec<u64>,
    /// Snapshot of the run's private metrics registry, merged across
    /// shards in shard order.
    pub snapshot: Snapshot,
    /// The merged popularity view: the end-of-run estimator score for
    /// every global title, stitched from each owning shard's estimator
    /// (`len == titles`).
    pub popularity: Vec<f64>,
}

/// A shard's counters and served-latency population, raw: the merge sums
/// them across shards and summarizes the latencies once.
#[derive(Debug, Default)]
struct Tally {
    served_broadcast: usize,
    served_pool: usize,
    defected: usize,
    rejected: usize,
    deferred: usize,
    swaps_planned: usize,
    swaps_committed: usize,
    /// Served-request latencies, minutes (sorted once the shard has run).
    latencies: Vec<f64>,
    res: ResilienceOutcome,
}

impl Tally {
    /// Add another shard's tally. Every shard replayed the same restart
    /// epochs, so that one counter takes the max rather than the sum.
    fn absorb(&mut self, other: &Tally) {
        self.served_broadcast += other.served_broadcast;
        self.served_pool += other.served_pool;
        self.defected += other.defected;
        self.rejected += other.rejected;
        self.deferred += other.deferred;
        self.swaps_planned += other.swaps_planned;
        self.swaps_committed += other.swaps_committed;
        self.latencies.extend_from_slice(&other.latencies);
        let (res, o) = (&mut self.res, &other.res);
        res.outages += o.outages;
        res.reallocations += o.reallocations;
        res.repaired_sessions += o.repaired_sessions;
        res.redirected += o.redirected;
        res.retries += o.retries;
        res.backoff_rejects += o.backoff_rejects;
        res.churned += o.churned;
        res.restarts = res.restarts.max(o.restarts);
        res.stall_minutes += o.stall_minutes;
        res.skipped_minutes += o.skipped_minutes;
        res.degraded_minutes += o.degraded_minutes;
    }
}

/// One shard's raw results, pre-merge.
struct ShardResult {
    tally: Tally,
    /// The committed hot set at the end of the run, as shard-local titles
    /// in local slot order.
    final_hot: Vec<usize>,
    /// End-of-run estimator scores, indexed by shard-local title.
    scores: Vec<f64>,
    stats: EngineStats,
    snapshot: Snapshot,
}

/// The title space split across `S` sub-servers. With one shard it is
/// the identity: the sub-server is sized exactly like the whole server
/// and every local id equals its global id.
struct Partition {
    /// Per shard, its sized sub-server.
    sims: Vec<ControlledSim>,
    /// Per shard, its titles' global ids in ascending order (a title's
    /// position here is its local id).
    titles_of: Vec<Vec<usize>>,
    /// Per global title, its `(shard, local id)`.
    local_of: Vec<(usize, usize)>,
}

/// What one shard reads of the run: the caller's whole request slice and
/// fault script, of which it plays only what it owns.
#[derive(Clone, Copy)]
struct ShardView<'a> {
    shard: usize,
    shards: usize,
    requests: &'a [WorkloadRequest],
    local_of: &'a [(usize, usize)],
    /// The `video` label value of each shard-local title id.
    video_labels: &'a IdLabels,
    script: &'a FaultScript,
    policy: ControlPolicy,
    degradation: Degradation,
}

/// One shard's event-loop state. Each [`Ev`] kind has its own handler.
struct ShardState<'a> {
    sim: &'a ControlledSim,
    view: ShardView<'a>,
    scale: TickScale,
    est: PopularityEstimator,
    alloc: ChannelAllocator,
    adm: AdmissionControl,
    /// Idle pool channels.
    free: usize,
    /// Per local title, its waiters in arrival order.
    queues: Vec<Vec<Waiter>>,
    total_queued: usize,
    /// In-flight broadcast sessions per local slot, for outage repair.
    active: Vec<Vec<BroadcastSession>>,
    tally: Tally,
}

impl<'a> ShardState<'a> {
    fn new(sim: &'a ControlledSim, view: ShardView<'a>) -> Self {
        let cfg = &sim.cfg;
        let initial: Vec<usize> = (0..cfg.hot_slots).collect();
        let mut adm = AdmissionControl::new(cfg.admission_ceiling);
        adm.retry = cfg.admission_retry;
        Self {
            sim,
            view,
            scale: TickScale::default(),
            est: PopularityEstimator::new(cfg.titles, cfg.half_life),
            alloc: ChannelAllocator::new(&initial, sim.d1, cfg.hysteresis),
            adm,
            free: sim.pool,
            queues: vec![Vec::new(); cfg.titles],
            total_queued: 0,
            active: vec![Vec::new(); cfg.hot_slots],
            tally: Tally::default(),
        }
    }

    fn at_ticks(&self, minutes: f64) -> Ticks {
        Ticks::ZERO + self.scale.duration_from_minutes(Minutes(minutes))
    }

    /// Request `idx` of the caller's slice and its shard-local title.
    fn request(&self, idx: usize) -> (&'a WorkloadRequest, usize) {
        let requests = self.view.requests;
        let r = &requests[idx];
        (r, self.view.local_of[r.video].1)
    }

    /// Run the shard's events to exhaustion; returns the engine's
    /// statistics.
    fn run(&mut self, rec: &mut dyn Recorder) -> EngineStats {
        let mut eng: Engine<Ev> = Engine::new();
        self.schedule(&mut eng);
        eng.run(|eng, at, ev| self.handle_event(eng, at, ev, rec));

        // Every queue drains before the agenda does: a busy channel always
        // has a PoolDone ahead, and each PoolDone re-dispatches.
        debug_assert_eq!(self.total_queued, 0, "waiters left queued after exhaustion");
        self.tally.defected += self.total_queued; // defensive: account for them anyway
                                                  // Sorted on the shard's worker, so the merge's sort only has to
                                                  // combine presorted runs.
        self.tally.latencies.sort_by(f64::total_cmp);

        let stats = eng.stats();
        rec.incr(
            "engine_events_total",
            &[("kind", "scheduled")],
            stats.scheduled,
        );
        rec.incr("engine_events_total", &[("kind", "fired")], stats.fired);
        rec.incr(
            "engine_events_total",
            &[("kind", "cancelled")],
            stats.cancelled,
        );
        stats
    }

    /// Schedule the shard's arrivals (in slice order, keyed by global
    /// index), its control ticks, the outages of the slots it owns, and
    /// every server-wide restart and churn wave.
    fn schedule(&self, eng: &mut Engine<Ev>) {
        let v = self.view;
        let mut horizon = 0.0_f64;
        for (idx, r) in v.requests.iter().enumerate() {
            if v.local_of[r.video].0 == v.shard {
                eng.schedule_at(self.at_ticks(r.at.value()), Ev::Arrive { idx, attempt: 0 });
                horizon = horizon.max(r.at.value());
            }
        }
        let tick = self.sim.cfg.tick.value();
        let mut t = tick;
        while t <= horizon {
            eng.schedule_at(self.at_ticks(t), Ev::Tick);
            t += tick;
        }
        for (idx, o) in v.script.outages.iter().enumerate() {
            if o.channel % v.shards == v.shard {
                eng.schedule_at(self.at_ticks(o.start.value()), Ev::OutageStart { idx });
                eng.schedule_at(self.at_ticks(o.end().value()), Ev::OutageEnd { idx });
            }
        }
        for r in &v.script.restarts {
            eng.schedule_at(self.at_ticks(r.value()), Ev::Restart);
        }
        for (idx, c) in v.script.churn.iter().enumerate() {
            eng.schedule_at(self.at_ticks(c.at.value()), Ev::Churn { idx });
        }
    }

    fn handle_event(&mut self, eng: &mut Engine<Ev>, at: Ticks, ev: Ev, rec: &mut dyn Recorder) {
        let engine_now = self.scale.minutes(TickDuration(at.0)).value();
        match ev {
            Ev::Arrive { idx, attempt } => self.on_arrive(eng, engine_now, idx, attempt, rec),
            Ev::PoolDone => {
                self.free += 1;
                self.dispatch(eng, engine_now, rec);
            }
            Ev::Tick => self.on_tick(Minutes(engine_now), rec),
            Ev::OutageStart { idx } => self.on_outage_start(idx, engine_now, rec),
            Ev::OutageEnd { idx } => {
                let o = &self.view.script.outages[idx];
                self.alloc
                    .restore(o.channel / self.view.shards, Minutes(engine_now));
                self.tally.res.reallocations += 1;
                rec.incr("control_reallocations_total", &[("kind", "restored")], 1);
            }
            Ev::Restart => self.on_restart(rec),
            Ev::Churn { idx } => self.on_churn(idx, rec),
        }
    }

    /// Commit the swaps that have matured by `now`.
    fn commit_matured(&mut self, now: Minutes, rec: &mut dyn Recorder) {
        let matured = self.alloc.commit_matured(now).len();
        if matured > 0 {
            self.tally.swaps_committed += matured;
            rec.incr(
                "control_reallocations_total",
                &[("kind", "committed")],
                matured as u64,
            );
        }
    }

    /// Request `idx` arrives; `attempt` counts the admission retries
    /// already behind it (0 = fresh arrival).
    fn on_arrive(
        &mut self,
        eng: &mut Engine<Ev>,
        engine_now: f64,
        idx: usize,
        attempt: u32,
        rec: &mut dyn Recorder,
    ) {
        let (r, video) = self.request(idx);
        let fresh = attempt == 0;
        // Fresh arrivals use the exact arrival time; retries use the
        // (tick-rounded) engine clock.
        let now = if fresh { r.at.value() } else { engine_now };
        self.commit_matured(Minutes(now), rec);
        if fresh {
            self.est.observe(r.at, video);
            let vl = self.view.video_labels.get(video);
            rec.incr("control_requests_total", &[("video", vl)], 1);
        }
        let deadline = r.at.value() + r.patience.value();
        if let Some(slot) = self.alloc.slot_of(video) {
            self.serve_broadcast(slot, now, r.at.value(), deadline, rec);
        } else if now > deadline {
            // A retry that outlived its patience.
            self.tally.defected += 1;
            rec.incr("control_defections_total", &[("class", "pool")], 1);
        } else {
            if fresh && self.alloc.slot_of_any(video).is_some() {
                // Hot but dark: redirected to the pool.
                self.tally.res.redirected += 1;
                rec.incr("resilience_redirected_total", &[], 1);
            }
            self.admit(eng, idx, attempt, now, deadline, rec);
        }
    }

    /// Broadcast service on local `slot`: wait for the slot's next
    /// first-fragment cycle, slipping whole cycles past burst-lost first
    /// fragments, boundedly. Burst loss is drawn on the slot's global
    /// index, so every slot keeps the single server's loss pattern.
    fn serve_broadcast(
        &mut self,
        slot: usize,
        now: f64,
        arrival: f64,
        deadline: f64,
        rec: &mut dyn Recorder,
    ) {
        let d1 = self.sim.d1.value();
        let v = self.view;
        let global_slot = slot * v.shards + v.shard;
        let mut start = now + self.alloc.wait_for(slot, Minutes(now)).value();
        let mut slips = 0u64;
        while slips < MAX_SLIPS
            && v.script.bursts.iter().any(|b| {
                start >= b.start.value()
                    && start < b.end().value()
                    && b.loss.is_lost(global_slot, (start / d1) as u64)
            })
        {
            start += d1;
            slips += 1;
        }
        if slips > 0 {
            rec.incr("resilience_burst_slips_total", &[], slips);
        }
        if start > deadline {
            self.tally.defected += 1;
            rec.incr("control_defections_total", &[("class", "broadcast")], 1);
        } else {
            let wait = start - arrival;
            self.tally.served_broadcast += 1;
            self.tally.latencies.push(wait);
            rec.observe("control_latency_minutes", &[("class", "broadcast")], wait);
            self.active[slot].push(BroadcastSession {
                start,
                end: start + self.sim.video_length.value(),
            });
        }
    }

    /// Put request `idx` through admission control into its pool queue.
    fn admit(
        &mut self,
        eng: &mut Engine<Ev>,
        idx: usize,
        attempt: u32,
        now: f64,
        deadline: f64,
        rec: &mut dyn Recorder,
    ) {
        let (r, video) = self.request(idx);
        let pool = self.sim.pool;
        match self
            .adm
            .decide(pool - self.free, self.total_queued, pool, attempt)
        {
            AdmissionDecision::Admit => {
                let w = Waiter {
                    arrival: r.at.value(),
                    deadline,
                };
                // Keep the queue sorted by arrival so FCFS sees the true
                // head even after retries.
                let pos = self.queues[video].partition_point(|x| x.arrival <= w.arrival);
                self.queues[video].insert(pos, w);
                self.total_queued += 1;
                self.dispatch(eng, now, rec);
            }
            AdmissionDecision::Defer(delay) => {
                let retry_at = now + delay.value();
                if retry_at < deadline {
                    self.tally.deferred += 1;
                    self.tally.res.retries += 1;
                    rec.incr("control_deferrals_total", &[], 1);
                    eng.schedule_at(
                        self.at_ticks(retry_at),
                        Ev::Arrive {
                            idx,
                            attempt: attempt + 1,
                        },
                    );
                } else {
                    self.tally.rejected += 1;
                    rec.incr("control_rejected_total", &[], 1);
                }
            }
            AdmissionDecision::Reject => {
                if attempt > 0 {
                    // Backoff budget exhausted, not a plain over-ceiling
                    // turn-away.
                    self.tally.res.backoff_rejects += 1;
                    rec.incr("resilience_backoff_rejects_total", &[], 1);
                }
                self.tally.rejected += 1;
                rec.incr("control_rejected_total", &[], 1);
            }
        }
    }

    /// Purge reneged waiters, then serve batches while channels and
    /// candidates last.
    fn dispatch(&mut self, eng: &mut Engine<Ev>, now: f64, rec: &mut dyn Recorder) {
        for q in &mut self.queues {
            let before = q.len();
            q.retain(|w| w.deadline >= now);
            let gone = before - q.len();
            if gone > 0 {
                self.total_queued -= gone;
                self.tally.defected += gone;
                rec.incr(
                    "control_defections_total",
                    &[("class", "pool")],
                    gone as u64,
                );
            }
        }
        while self.free > 0 {
            let views: Vec<Vec<Pending>> = self
                .queues
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|w| Pending {
                            arrival: Minutes(w.arrival),
                        })
                        .collect()
                })
                .collect();
            let Some(v) = self.sim.cfg.batch.choose(&views) else {
                break;
            };
            let q = core::mem::take(&mut self.queues[v]);
            self.total_queued -= q.len();
            self.free -= 1;
            let vl = self.view.video_labels.get(v);
            rec.incr("control_batches_total", &[("video", vl)], 1);
            for w in q {
                let wait = now - w.arrival;
                self.tally.served_pool += 1;
                self.tally.latencies.push(wait);
                rec.observe("control_latency_minutes", &[("class", "pool")], wait);
            }
            eng.schedule_at(
                self.at_ticks(now + self.sim.video_length.value()),
                Ev::PoolDone,
            );
        }
    }

    /// The periodic control event: commit matured swaps and, under
    /// [`ControlPolicy::Dynamic`], plan new ones.
    fn on_tick(&mut self, now: Minutes, rec: &mut dyn Recorder) {
        self.commit_matured(now, rec);
        if self.view.policy == ControlPolicy::Dynamic {
            let planned = self.alloc.plan(now, self.est.scores()).len();
            if planned > 0 {
                self.tally.swaps_planned += planned;
                rec.incr(
                    "control_reallocations_total",
                    &[("kind", "planned")],
                    planned as u64,
                );
            }
        }
        rec.gauge_max("control_peak_queue_depth", &[], self.total_queued as f64);
        rec.gauge_max(
            "control_peak_pool_busy",
            &[],
            (self.sim.pool - self.free) as f64,
        );
    }

    /// Outage `idx` of the fault script takes its slot dark.
    fn on_outage_start(&mut self, idx: usize, now: f64, rec: &mut dyn Recorder) {
        let o = &self.view.script.outages[idx];
        let slot = o.channel / self.view.shards;
        let res = &mut self.tally.res;
        res.outages += 1;
        res.reallocations += 1;
        rec.incr("resilience_outages_total", &[], 1);
        if self.alloc.out_of_service(slot).is_some() {
            // A swap in flight on the failed slot is aborted.
            res.reallocations += 1;
            rec.incr(
                "control_reallocations_total",
                &[("kind", "outage-cancelled")],
                1,
            );
        }
        // Repair every in-flight session the dark window cuts into: the
        // lost delivery time is resolved per the degradation policy, and
        // the session still completes.
        let o_start = o.start.value();
        let o_end = o.end().value();
        self.active[slot].retain(|s| s.end > now);
        for s in &mut self.active[slot] {
            let overlap = (s.end.min(o_end) - s.start.max(o_start)).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            res.repaired_sessions += 1;
            rec.incr("resilience_repaired_sessions_total", &[], 1);
            repair(s, overlap, self.view.degradation, res, rec);
        }
    }

    /// Server restart epoch: pending swaps are cancelled and the
    /// estimator starts over.
    fn on_restart(&mut self, rec: &mut dyn Recorder) {
        let cancelled = self.alloc.cancel_all_pending();
        self.est = PopularityEstimator::new(self.sim.cfg.titles, self.sim.cfg.half_life);
        self.tally.res.restarts += 1;
        self.tally.res.reallocations += cancelled;
        rec.incr("resilience_restarts_total", &[], 1);
        if cancelled > 0 {
            rec.incr(
                "control_reallocations_total",
                &[("kind", "restart-cancelled")],
                cancelled as u64,
            );
        }
    }

    /// Churn event `idx`: a seeded fraction of the waiting clients
    /// abandon.
    fn on_churn(&mut self, idx: usize, rec: &mut dyn Recorder) {
        let c = &self.view.script.churn[idx];
        let mut rng = SmallRng::seed_from_u64(c.seed);
        let mut gone = 0usize;
        // Queues are walked in title order, waiters in arrival order: the
        // draw sequence is deterministic.
        for q in &mut self.queues {
            let before = q.len();
            q.retain(|_| rng.gen::<f64>() >= c.fraction);
            gone += before - q.len();
        }
        if gone > 0 {
            self.total_queued -= gone;
            self.tally.defected += gone;
            self.tally.res.churned += gone;
            rec.incr("resilience_churned_total", &[], gone as u64);
            rec.incr(
                "control_defections_total",
                &[("class", "churn")],
                gone as u64,
            );
        }
    }
}

/// Resolve `overlap` minutes of an outage cut into session `s` per the
/// degradation policy.
fn repair(
    s: &mut BroadcastSession,
    overlap: f64,
    degradation: Degradation,
    res: &mut ResilienceOutcome,
    rec: &mut dyn Recorder,
) {
    let policy = &[("policy", degradation.label())];
    match degradation {
        Degradation::Stall => {
            s.end += overlap;
            res.stall_minutes += overlap;
            rec.observe("resilience_stall_minutes", policy, overlap);
        }
        Degradation::SkipSegment => {
            res.skipped_minutes += overlap;
            rec.observe("resilience_skipped_minutes", policy, overlap);
        }
        Degradation::QualityDrop => {
            let half = overlap / 2.0;
            s.end += half;
            res.stall_minutes += half;
            res.degraded_minutes += half;
            rec.observe("resilience_stall_minutes", policy, half);
            rec.observe("resilience_degraded_minutes", policy, half);
        }
    }
}

/// The controlled hybrid simulation (see [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledSim {
    cfg: ControlConfig,
    /// First-fragment cycle / worst-case broadcast wait `D₁`.
    d1: Minutes,
    /// Video length `D` (pool service time).
    video_length: Minutes,
    /// Title display rate (uniform across the catalog).
    display_rate: Mbps,
    broadcast_channels: usize,
    pool: usize,
}

impl ControlledSim {
    /// Size the broadcast half and the pool for `cfg` against `catalog`.
    ///
    /// # Errors
    /// [`SchemeError::InvalidConfig`] on a malformed configuration (slot
    /// or title counts, broadcast fraction, tick period, estimator
    /// half-life, hysteresis margin, admission ceiling), and the usual
    /// bandwidth errors when the broadcast fraction cannot sustain one SB
    /// channel per slot or leaves an empty pool.
    pub fn new(cfg: ControlConfig, catalog: &Catalog) -> Result<Self> {
        if cfg.titles > catalog.len() {
            return Err(SchemeError::InvalidConfig {
                what: "catalog smaller than configured title count",
            });
        }
        let Some(v0) = catalog.get(0) else {
            return Err(SchemeError::InvalidConfig {
                what: "empty catalog",
            });
        };
        Self::sized(cfg, v0.length, v0.display_rate)
    }

    /// Size a server for `cfg` from the title parameters directly, with
    /// no catalog in hand — the one constructor that validates a
    /// [`ControlConfig`], used for the whole server and for each shard's
    /// sub-server.
    fn sized(cfg: ControlConfig, video_length: Minutes, display_rate: Mbps) -> Result<Self> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        let invalid = |what| Err(SchemeError::InvalidConfig { what });
        if cfg.titles == 0 || cfg.hot_slots == 0 || cfg.hot_slots > cfg.titles {
            return invalid("need 0 < hot_slots <= titles");
        }
        if !(cfg.broadcast_fraction > 0.0 && cfg.broadcast_fraction < 1.0) {
            return invalid("broadcast fraction must be in (0, 1)");
        }
        if !positive(cfg.tick.value()) {
            return invalid("control tick period must be positive and finite");
        }
        if !positive(cfg.half_life.value()) {
            return invalid("estimator half-life must be positive and finite");
        }
        if !(cfg.hysteresis >= 0.0 && cfg.hysteresis.is_finite()) {
            return invalid("hysteresis margin must be non-negative and finite");
        }
        if !positive(cfg.admission_ceiling) {
            return invalid("admission ceiling must be positive and finite");
        }
        let sb_cfg = SystemConfig {
            server_bandwidth: Mbps(cfg.total_bandwidth.value() * cfg.broadcast_fraction),
            num_videos: cfg.hot_slots,
            video_length,
            display_rate,
        };
        let scheme = Skyscraper::with_width(cfg.width);
        let metrics = scheme.metrics(&sb_cfg)?;
        let k = scheme.channels_per_video(&sb_cfg)?;
        let broadcast_channels = k * cfg.hot_slots;
        let leftover =
            cfg.total_bandwidth.value() - broadcast_channels as f64 * display_rate.value();
        let pool = (leftover / display_rate.value()).floor() as usize;
        if pool == 0 {
            return Err(SchemeError::InsufficientBandwidth {
                channels_per_video: 0,
                required: 1,
            });
        }
        Ok(Self {
            cfg,
            d1: metrics.access_latency,
            video_length,
            display_rate,
            broadcast_channels,
            pool,
        })
    }

    /// Worst-case broadcast wait `D₁` (also the reallocation cycle).
    #[must_use]
    pub fn cycle(&self) -> Minutes {
        self.d1
    }

    /// Channels in the batching pool.
    #[must_use]
    pub fn pool_channels(&self) -> usize {
        self.pool
    }

    /// Execute `cfg` under `policy` — the single entry point subsuming
    /// the deprecated `run` / `run_with_faults` variants and adding
    /// partitioned scale-out.
    ///
    /// Every shard count takes one path: partition the titles, run each
    /// shard, merge in shard order. With `shards(S)` the title space is
    /// partitioned across `S` sub-servers — broadcast slot `i` goes to
    /// shard `i % S`, cold titles by the seeded [`shard_of`] hash unless
    /// the config's `partition` slot covers them (a scenario's region
    /// table then keeps each region's cold tail on its region's shard) —
    /// each with `hot_slots / S`-proportional bandwidth, its own
    /// allocator, estimator, admission control and batching pool, run
    /// concurrently on the deterministic pool. `shards(1)` (the default)
    /// is the one-shard partition: the whole server, bit for bit. The
    /// sharded run is a *partitioned system model* (each shard batches
    /// and admits over its own pool), so its report differs from
    /// `shards(1)` by design; for a fixed `S` it is byte-identical for
    /// every thread count.
    ///
    /// Slot semantics: the `recorder` slot receives the metric stream —
    /// live with one shard, replayed per shard in shard order with more;
    /// the `sink` slot is ignored (the control plane produces no session
    /// traces); the `faults` slot carries a [`ControlFaults`] bundle —
    /// outages are routed to the owning shard, restarts and churn waves
    /// reach every shard, and burst-loss episodes are drawn on each
    /// slot's global index, as on the single server.
    ///
    /// # Errors
    /// [`SchemeError::InvalidConfig`] on an invalid fault script, an
    /// outage naming a missing slot, a request naming a title outside
    /// the catalog, or `shards` exceeding `hot_slots`; sizing errors if a
    /// shard's bandwidth share cannot sustain its broadcast half plus a
    /// non-empty pool.
    pub fn execute<F: IntoControlFaults>(
        &self,
        policy: ControlPolicy,
        cfg: RunConfig<'_, WorkloadRequest, F>,
    ) -> Result<ControlOutcome> {
        let RunParts {
            requests,
            sink: _,
            recorder,
            faults,
            shards,
            threads,
            seed,
            partition,
            checkpoint_every: _,
        } = cfg.into_parts();
        let quiet = FaultScript::none();
        let (script, degradation) = match &faults {
            Some(f) => f.resolve(&quiet),
            None => (&quiet, Degradation::Stall),
        };
        if shards > self.cfg.hot_slots {
            return Err(SchemeError::InvalidConfig {
                what: "more shards than broadcast slots",
            });
        }
        script.validate()?;
        if script
            .outages
            .iter()
            .any(|o| o.channel >= self.cfg.hot_slots)
        {
            return Err(SchemeError::InvalidConfig {
                what: "fault script outage names a broadcast slot the config does not have",
            });
        }
        let part = self.partition(shards, seed, partition)?;
        // Every shard routes arrivals through `local_of[r.video]`.
        if requests.iter().any(|r| r.video >= self.cfg.titles) {
            return Err(SchemeError::InvalidConfig {
                what: "request names a title outside the catalog",
            });
        }

        // Label strings are formatted once per run, not per request.
        let video_labels = IdLabels::new(self.cfg.titles);
        let view = |shard| ShardView {
            shard,
            shards,
            requests,
            local_of: &part.local_of,
            video_labels: &video_labels,
            script,
            policy,
            degradation,
        };
        // One shard tees the caller's recorder live, buffering nothing.
        let outs = if shards == 1 {
            vec![part.sims[0].run_shard(view(0), recorder)]
        } else {
            // The recorder cannot be shared across workers: each shard
            // buffers its stream, replayed below in shard order.
            let want_ops = recorder.is_some();
            let runs = parallel_map(threads, "control-shards", &part.sims, |s, sim| {
                let mut ops = want_ops.then(OpLog::new);
                let out = sim.run_shard(view(s), ops.as_mut().map(|l| l as &mut dyn Recorder));
                (out, ops)
            });
            if let Some(rec) = recorder {
                for log in runs.iter().filter_map(|(_, ops)| ops.as_ref()) {
                    log.replay(rec);
                }
            }
            runs.into_iter().map(|(out, _)| out).collect()
        };
        Ok(self.merge(&part, policy, requests.len(), &outs))
    }

    /// Split the title space across `shards` sub-servers. Broadcast slot
    /// (= hot title) `i` goes to shard `i % S` and, because titles are
    /// visited in ascending order, lands on local ids `0..k_s` — exactly
    /// the sub-server's initial hot set. Cold titles follow the scenario
    /// slot's owning-shard `table` when it covers them, otherwise the
    /// seeded `shard_of` hash; hot slots must stay `i % S` because the
    /// sub-server bandwidth shares are sized off that stride.
    fn partition(&self, shards: usize, seed: u64, table: Option<&[usize]>) -> Result<Partition> {
        let m = self.cfg.hot_slots;
        let mut titles_of: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut local_of: Vec<(usize, usize)> = Vec::with_capacity(self.cfg.titles);
        for t in 0..self.cfg.titles {
            let s = if t < m {
                t % shards
            } else {
                match table.and_then(|map| map.get(t)) {
                    Some(&owner) => owner % shards,
                    None => shard_of(t as u64, seed, shards),
                }
            };
            local_of.push((s, titles_of[s].len()));
            titles_of[s].push(t);
        }
        // Shard `s` owns `k_s` of the `m` slots and gets the proportional
        // bandwidth share, so its per-video broadcast bandwidth — and with
        // it `D₁` — matches the whole server's (`k_s = m` at one shard,
        // where the share is exactly the whole bandwidth).
        let sims = titles_of
            .iter()
            .enumerate()
            .map(|(s, shard_titles)| {
                let k_s = (0..m).filter(|i| i % shards == s).count();
                let cfg_s = ControlConfig {
                    titles: shard_titles.len(),
                    hot_slots: k_s,
                    total_bandwidth: Mbps(
                        self.cfg.total_bandwidth.value() * (k_s as f64 / m as f64),
                    ),
                    ..self.cfg
                };
                Self::sized(cfg_s, self.video_length, self.display_rate)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Partition {
            sims,
            titles_of,
            local_of,
        })
    }

    /// Run one shard (`self` is its sub-server) into a private registry,
    /// teeing every metric into `user` when given.
    fn run_shard(&self, view: ShardView<'_>, user: Option<&mut dyn Recorder>) -> ShardResult {
        let mut reg = Registry::new();
        let mut state = ShardState::new(self, view);
        let stats = match user {
            Some(user) => state.run(&mut TeeRecorder {
                a: &mut reg,
                b: user,
            }),
            None => state.run(&mut reg),
        };
        ShardResult {
            final_hot: state.alloc.hot_videos(),
            scores: state.est.scores().to_vec(),
            tally: state.tally,
            stats,
            snapshot: reg.snapshot(),
        }
    }

    /// Merge the shards' results, in shard order throughout: tallies,
    /// engine statistics and snapshots add, the latency population
    /// concatenates and is summarized once, and the hot sets and
    /// estimator scores map back to global titles.
    fn merge(
        &self,
        part: &Partition,
        policy: ControlPolicy,
        requests: usize,
        outs: &[ShardResult],
    ) -> ControlOutcome {
        let shards = outs.len();
        let mut tally = Tally::default();
        let mut stats = EngineStats::default();
        let mut shard_peak_agenda = Vec::with_capacity(shards);
        let mut snapshot = Snapshot::default();
        for out in outs {
            tally.absorb(&out.tally);
            stats.absorb(&out.stats);
            shard_peak_agenda.push(out.stats.peak_agenda);
            snapshot.merge(&out.snapshot);
        }
        let final_hot = (0..self.cfg.hot_slots)
            .map(|i| {
                let s = i % shards;
                part.titles_of[s][outs[s].final_hot[i / shards]]
            })
            .collect();
        let popularity = part
            .local_of
            .iter()
            .map(|&(s, local)| outs[s].scores[local])
            .collect();

        let latencies = &mut tally.latencies;
        latencies.sort_by(f64::total_cmp);
        let (mean, p95, worst) = match latencies.last() {
            None => (0.0, 0.0, 0.0),
            Some(&worst) => {
                let n = latencies.len();
                let i = ((n as f64 * 0.95).ceil() as usize).clamp(1, n);
                (
                    latencies.iter().sum::<f64>() / n as f64,
                    latencies[i - 1],
                    worst,
                )
            }
        };
        let summary = ControlReport {
            policy,
            requests,
            served_broadcast: tally.served_broadcast,
            served_pool: tally.served_pool,
            defected: tally.defected,
            rejected: tally.rejected,
            deferred: tally.deferred,
            swaps_planned: tally.swaps_planned,
            swaps_committed: tally.swaps_committed,
            mean_latency: Minutes(mean),
            p95_latency: Minutes(p95),
            worst_latency: Minutes(worst),
            final_hot,
            broadcast_channels: part.sims.iter().map(|s| s.broadcast_channels).sum(),
            pool_channels: part.sims.iter().map(|s| s.pool).sum(),
            cycle: part.sims[0].d1,
            resilience: tally.res,
        };
        ControlOutcome {
            summary,
            stats,
            shard_peak_agenda,
            snapshot,
            popularity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_resilience::{BurstEpisode, ChannelOutage, ChurnEvent, GilbertElliott};
    use sb_workload::{Patience, PoissonArrivals, PopularityShift, ZipfPopularity};

    fn shifted_workload(
        titles: usize,
        rate: f64,
        horizon: f64,
        shift_at: f64,
        rotate: usize,
        seed: u64,
    ) -> Vec<WorkloadRequest> {
        PopularityShift {
            arrivals: PoissonArrivals::new(rate, seed)
                .with_patience(Patience::Exponential(Minutes(30.0))),
            shift_at: Minutes(shift_at),
            rotate,
        }
        .generate(&ZipfPopularity::paper(titles), Minutes(horizon))
    }

    fn sim(bandwidth: f64) -> ControlledSim {
        let cfg = ControlConfig::paper_defaults(Mbps(bandwidth));
        let catalog = Catalog::paper_defaults(cfg.titles);
        ControlledSim::new(cfg, &catalog).unwrap()
    }

    fn exec(sim: &ControlledSim, reqs: &[WorkloadRequest], policy: ControlPolicy) -> ControlReport {
        sim.execute(policy, RunConfig::new(reqs)).unwrap().summary
    }

    fn exec_faults(
        sim: &ControlledSim,
        reqs: &[WorkloadRequest],
        policy: ControlPolicy,
        script: &FaultScript,
        degradation: Degradation,
    ) -> Result<ControlReport> {
        Ok(sim
            .execute(
                policy,
                RunConfig::new(reqs).faults(ControlFaults {
                    script,
                    degradation,
                }),
            )?
            .summary)
    }

    #[test]
    fn accounting_adds_up_under_both_policies() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 400.0, 200.0, 13, 5);
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let report = exec(&sim, &reqs, policy);
            assert_eq!(report.accounted(), reqs.len(), "{policy}");
            assert!(
                report.resilience.is_quiet(),
                "fault-free run took recovery actions"
            );
        }
    }

    #[test]
    fn static_policy_never_reallocates() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 400.0, 200.0, 13, 7);
        let report = exec(&sim, &reqs, ControlPolicy::Static);
        assert_eq!(report.swaps_planned, 0);
        assert_eq!(report.swaps_committed, 0);
        assert_eq!(report.final_hot, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_policy_tracks_the_shift() {
        let sim = sim(300.0);
        // Rotate the head of the Zipf right out of the initial hot set.
        let reqs = shifted_workload(40, 6.0, 500.0, 120.0, 20, 11);
        let report = exec(&sim, &reqs, ControlPolicy::Dynamic);
        assert!(report.swaps_committed > 0, "no swaps committed");
        // The post-shift favourites are ranks 20.. (old rank r now arrives
        // as (r + 20) % 40); the final hot set should have moved there.
        let moved = report
            .final_hot
            .iter()
            .filter(|&&v| (20..28).contains(&v))
            .count();
        assert!(moved >= 4, "final hot set {:?}", report.final_hot);
    }

    #[test]
    fn broadcast_wait_never_exceeds_the_cycle() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 4.0, 300.0, 150.0, 10, 3);
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let snap = sim.execute(policy, RunConfig::new(&reqs)).unwrap().snapshot;
            let h = snap
                .histogram("control_latency_minutes", "class=broadcast")
                .expect("broadcast latency recorded");
            // Broadcast waits are bounded by D₁ (fresh arrivals); only
            // deferred pool arrivals could see more, and they are class=pool.
            assert!(h.count > 0);
            assert!(
                h.sum / h.count as f64 <= sim.cycle().value(),
                "mean broadcast wait above the cycle bound"
            );
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let sim = sim(240.0);
        let reqs = shifted_workload(40, 5.0, 300.0, 150.0, 15, 29);
        let a = sim
            .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs))
            .unwrap();
        let b = sim
            .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn admission_rejects_under_overload() {
        let cfg = ControlConfig {
            admission_ceiling: 1.5,
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        // Patient viewers + heavy load: queues build until the ceiling.
        let reqs = PoissonArrivals::new(8.0, 17)
            .with_patience(Patience::Infinite)
            .generate(&ZipfPopularity::paper(40), Minutes(400.0));
        let report = exec(&sim, &reqs, ControlPolicy::Static);
        assert!(report.rejected > 0, "ceiling never triggered");
        assert_eq!(report.accounted(), reqs.len());
    }

    #[test]
    fn deferral_retries_instead_of_rejecting() {
        let cfg = ControlConfig {
            admission_ceiling: 1.5,
            admission_retry: Some(Backoff::fixed(Minutes(5.0)).unwrap()),
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        let reqs = PoissonArrivals::new(8.0, 17)
            .with_patience(Patience::Exponential(Minutes(40.0)))
            .generate(&ZipfPopularity::paper(40), Minutes(400.0));
        let report = exec(&sim, &reqs, ControlPolicy::Static);
        assert!(report.deferred > 0, "no deferrals issued");
        assert_eq!(report.accounted(), reqs.len());
    }

    #[test]
    fn bounded_backoff_rejects_after_the_attempt_budget() {
        let cfg = ControlConfig {
            admission_ceiling: 1.2,
            admission_retry: Some(Backoff::new(Minutes(2.0), 2.0, 3).unwrap()),
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        // Very patient viewers: the only way out of a full pool is the
        // backoff budget running dry.
        let reqs = PoissonArrivals::new(10.0, 23)
            .with_patience(Patience::Infinite)
            .generate(&ZipfPopularity::paper(40), Minutes(400.0));
        let report = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &FaultScript::none(),
            Degradation::Stall,
        )
        .unwrap();
        assert!(report.resilience.retries > 0, "no backoff retries");
        assert!(
            report.resilience.backoff_rejects > 0,
            "attempt cap never reached"
        );
        assert_eq!(report.accounted(), reqs.len());
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        let catalog = Catalog::paper_defaults(40);
        let bad_slots = ControlConfig {
            hot_slots: 0,
            ..ControlConfig::paper_defaults(Mbps(300.0))
        };
        assert!(ControlledSim::new(bad_slots, &catalog).is_err());
        let bad_tick = ControlConfig {
            tick: Minutes(0.0),
            ..ControlConfig::paper_defaults(Mbps(300.0))
        };
        assert!(ControlledSim::new(bad_tick, &catalog).is_err());
        let bad_fraction = ControlConfig {
            broadcast_fraction: 1.5,
            ..ControlConfig::paper_defaults(Mbps(300.0))
        };
        assert!(ControlledSim::new(bad_fraction, &catalog).is_err());
        let defaults = ControlConfig::paper_defaults(Mbps(300.0));
        for bad in [
            ControlConfig {
                half_life: Minutes(0.0),
                ..defaults
            },
            ControlConfig {
                half_life: Minutes(f64::INFINITY),
                ..defaults
            },
            ControlConfig {
                hysteresis: -1.0,
                ..defaults
            },
            ControlConfig {
                hysteresis: f64::NAN,
                ..defaults
            },
            ControlConfig {
                admission_ceiling: 0.0,
                ..defaults
            },
            ControlConfig {
                admission_ceiling: f64::INFINITY,
                ..defaults
            },
        ] {
            assert!(
                matches!(
                    ControlledSim::new(bad, &catalog),
                    Err(SchemeError::InvalidConfig { .. })
                ),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn out_of_catalog_titles_error_at_every_shard_count() {
        let sim = sim(300.0);
        let mut reqs = shifted_workload(40, 3.0, 100.0, 50.0, 5, 1);
        reqs[7].video = 40;
        for shards in [1, 4] {
            let err = sim
                .execute(ControlPolicy::Static, RunConfig::new(&reqs).shards(shards))
                .unwrap_err();
            assert!(
                matches!(err, SchemeError::InvalidConfig { .. }),
                "S={shards}: {err:?}"
            );
        }
    }

    #[test]
    fn outage_redirects_arrivals_and_repairs_sessions() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            outages: vec![ChannelOutage {
                channel: 0,
                start: Minutes(100.0),
                duration: Minutes(60.0),
            }],
            ..FaultScript::none()
        };
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let report = exec_faults(&sim, &reqs, policy, &script, Degradation::Stall).unwrap();
            assert_eq!(report.accounted(), reqs.len(), "{policy}");
            assert_eq!(report.resilience.outages, 1);
            assert!(
                report.resilience.redirected > 0,
                "{policy}: nobody redirected"
            );
            assert!(
                report.resilience.repaired_sessions > 0,
                "{policy}: no sessions repaired"
            );
            assert!(report.resilience.stall_minutes > 0.0);
        }
    }

    #[test]
    fn degradation_policies_fill_their_own_ledgers() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            outages: vec![ChannelOutage {
                channel: 1,
                start: Minutes(120.0),
                duration: Minutes(45.0),
            }],
            ..FaultScript::none()
        };
        let run = |d: Degradation| {
            exec_faults(&sim, &reqs, ControlPolicy::Static, &script, d)
                .unwrap()
                .resilience
        };
        let stall = run(Degradation::Stall);
        assert!(stall.stall_minutes > 0.0 && stall.skipped_minutes == 0.0);
        let skip = run(Degradation::SkipSegment);
        assert!(skip.skipped_minutes > 0.0 && skip.stall_minutes == 0.0);
        let quality = run(Degradation::QualityDrop);
        assert!(quality.stall_minutes > 0.0 && quality.degraded_minutes > 0.0);
        // Same faults, same repairs — only the resolution differs.
        assert_eq!(stall.repaired_sessions, skip.repaired_sessions);
        assert!((skip.skipped_minutes - stall.stall_minutes).abs() < 1e-9);
        assert!((quality.stall_minutes - stall.stall_minutes / 2.0).abs() < 1e-9);
    }

    #[test]
    fn churn_defects_a_seeded_fraction_of_waiters() {
        let cfg = ControlConfig {
            admission_ceiling: 5.0,
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        let reqs = PoissonArrivals::new(8.0, 17)
            .with_patience(Patience::Infinite)
            .generate(&ZipfPopularity::paper(40), Minutes(300.0));
        let script = FaultScript {
            churn: vec![ChurnEvent {
                at: Minutes(150.0),
                fraction: 0.5,
                seed: 9,
            }],
            ..FaultScript::none()
        };
        let report = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &script,
            Degradation::Stall,
        )
        .unwrap();
        assert!(report.resilience.churned > 0, "nobody churned");
        assert_eq!(report.accounted(), reqs.len());
        // Deterministic: same script, same churn.
        let again = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &script,
            Degradation::Stall,
        )
        .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn restart_resets_the_estimator_and_cancels_swaps() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 500.0, 120.0, 20, 11);
        let script = FaultScript {
            restarts: vec![Minutes(130.0)],
            ..FaultScript::none()
        };
        let report = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Dynamic,
            &script,
            Degradation::Stall,
        )
        .unwrap();
        assert_eq!(report.resilience.restarts, 1);
        assert_eq!(report.accounted(), reqs.len());
        // Recovery continues after the restart: the shift still gets
        // tracked once the estimator re-learns it.
        assert!(report.swaps_committed > 0);
    }

    #[test]
    fn fault_scripts_are_validated() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 100.0, 50.0, 5, 1);
        let bad_slot = FaultScript {
            outages: vec![ChannelOutage {
                channel: 99,
                start: Minutes(10.0),
                duration: Minutes(5.0),
            }],
            ..FaultScript::none()
        };
        assert!(exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &bad_slot,
            Degradation::Stall
        )
        .is_err());
        let bad_window = FaultScript {
            outages: vec![ChannelOutage {
                channel: 0,
                start: Minutes(10.0),
                duration: Minutes(0.0),
            }],
            ..FaultScript::none()
        };
        assert!(exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &bad_window,
            Degradation::Stall
        )
        .is_err());
    }

    #[test]
    fn sharded_control_partitions_and_is_thread_invariant() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 5.0, 400.0, 200.0, 13, 5);
        for shards in [2, 4, 8] {
            let base = sim
                .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs).shards(shards))
                .unwrap();
            assert_eq!(base.summary.accounted(), reqs.len(), "S={shards}");
            assert_eq!(base.summary.final_hot.len(), 8);
            assert_eq!(base.popularity.len(), 40);
            assert_eq!(base.shard_peak_agenda.len(), shards);
            // The hot partition keeps every slot owned by a real title.
            let mut hot = base.summary.final_hot.clone();
            hot.sort_unstable();
            hot.dedup();
            assert_eq!(hot.len(), 8, "duplicate titles across shards");
            for threads in [2, 4] {
                let out = sim
                    .execute(
                        ControlPolicy::Dynamic,
                        RunConfig::new(&reqs).shards(shards).threads(threads),
                    )
                    .unwrap();
                assert_eq!(base, out, "S={shards} T={threads} diverged");
            }
        }
    }

    #[test]
    fn sharded_control_routes_faults_to_owning_shards() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            outages: vec![ChannelOutage {
                channel: 5,
                start: Minutes(100.0),
                duration: Minutes(60.0),
            }],
            restarts: vec![Minutes(220.0)],
            ..FaultScript::none()
        };
        let out = sim
            .execute(
                ControlPolicy::Static,
                RunConfig::new(&reqs).shards(4).faults(ControlFaults {
                    script: &script,
                    degradation: Degradation::Stall,
                }),
            )
            .unwrap();
        let res = &out.summary.resilience;
        assert_eq!(res.outages, 1, "outage lands on exactly one shard");
        assert_eq!(res.restarts, 1, "server-wide restart counted once");
        assert_eq!(out.summary.accounted(), reqs.len());
    }

    #[test]
    fn burst_loss_is_drawn_on_global_slots_at_every_shard_count() {
        // Static policy, no outages: every slot keeps phase 0 and the
        // shards' D₁ equals the whole server's, so whether a broadcast
        // admission slips depends only on (global slot, arrival, D₁).
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            bursts: vec![BurstEpisode {
                start: Minutes(80.0),
                duration: Minutes(200.0),
                loss: GilbertElliott::burst(4.0, 6.0, 0.9, 21).unwrap(),
            }],
            ..FaultScript::none()
        };
        let slips = |shards: usize| {
            let out = sim
                .execute(
                    ControlPolicy::Static,
                    RunConfig::new(&reqs).shards(shards).faults(ControlFaults {
                        script: &script,
                        degradation: Degradation::Stall,
                    }),
                )
                .unwrap();
            assert_eq!(out.summary.cycle, sim.cycle(), "S={shards}");
            out.snapshot
                .counter("resilience_burst_slips_total", "")
                .expect("bursts slipped some admissions")
        };
        let serial = slips(1);
        assert!(serial > 0);
        for shards in [2, 4, 8] {
            assert_eq!(slips(shards), serial, "S={shards}");
        }
    }

    #[test]
    fn recorder_slot_receives_the_outcome_metrics() {
        use sb_metrics::MetricValue;
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 5.0, 400.0, 200.0, 13, 5);
        for shards in [1, 4] {
            let mut reg = Registry::new();
            let out = sim
                .execute(
                    ControlPolicy::Dynamic,
                    RunConfig::new(&reqs)
                        .shards(shards)
                        .threads(2)
                        .recorder(&mut reg),
                )
                .unwrap();
            let seen = reg.snapshot();
            if shards == 1 {
                assert_eq!(
                    serde_json::to_string(&seen).unwrap(),
                    serde_json::to_string(&out.snapshot).unwrap()
                );
                continue;
            }
            // Replayed per shard, the recorder adds histogram sums in a
            // different order than the merge does: counts must agree,
            // sums may differ in the last bits.
            let names = |s: &Snapshot| {
                s.families
                    .iter()
                    .map(|f| f.name.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&seen), names(&out.snapshot));
            for (a, b) in seen.families.iter().zip(&out.snapshot.families) {
                assert_eq!(a.series.len(), b.series.len(), "{}", a.name);
                for (x, y) in a.series.iter().zip(&b.series) {
                    assert_eq!(x.labels, y.labels, "{}", a.name);
                    match (&x.value, &y.value) {
                        (MetricValue::Histogram(p), MetricValue::Histogram(q)) => {
                            assert_eq!((p.count, &p.counts), (q.count, &q.counts), "{}", a.name);
                        }
                        (p, q) => assert_eq!(p, q, "{}{{{}}}", a.name, x.labels),
                    }
                }
            }
        }
    }

    #[test]
    fn sharding_past_the_slot_count_errors() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 100.0, 50.0, 5, 1);
        let err = sim
            .execute(ControlPolicy::Static, RunConfig::new(&reqs).shards(16))
            .unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }
}
