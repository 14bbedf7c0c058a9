//! # Metropolitan VoD simulator
//!
//! The executable substrate under the paper's evaluation: broadcast
//! channels, per-scheme client policies, exact buffer accounting, fault
//! injection, and a discrete-event engine for whole-system runs.
//!
//! The paper's §4 and §5 are analytic. This crate exists to *check* that
//! analysis: it takes the very same [`sb_core::plan::ChannelPlan`] objects
//! the schemes build, drives simulated clients against them, and measures
//! the three Table-1 metrics empirically —
//!
//! * **access latency** — wait from arrival to the first catchable
//!   broadcast of the first fragment,
//! * **client I/O** — the number and rates of concurrent reception
//!   streams,
//! * **buffer occupancy** — the piecewise-linear fill level of the client
//!   disk, sampled at every breakpoint.
//!
//! ## Modules
//!
//! | module | contents |
//! |--------|----------|
//! | [`engine`] | a small, deterministic discrete-event engine (tick clock, binary-heap agenda) |
//! | [`agenda`] | event stores: the binary heap every run uses, and a hierarchical timing wheel with bitwise-identical fire order |
//! | [`checkpoint`] | versioned, checksummed shard checkpoints and the crash/restore probe protocol |
//! | [`trace`] | the unified [`trace::SessionTrace`] every client model produces, and the [`trace::ClientModel`] trait |
//! | [`schedule`] | client schedules: downloads, playback, and conversion to traces |
//! | [`policy`] | per-scheme client policies (latest-feasible, PB's eager prefetch, live) |
//! | [`pausing`] | PPB's "max-saving" mid-broadcast-retuning client |
//! | [`receive_all`] | Harmonic Broadcasting's record-everything client (and its famous bug) |
//! | [`cycle_record`] | CTIFB's cycle-recording client and its channel-transition invariance property |
//! | [`faults`] | broadcast-loss injection and stall accounting over traces |
//! | [`sink`] | the [`sink::TraceSink`] streaming fold: aggregate populations without retaining traces |
//! | [`system`] | many-client system simulation driven by the engine, generic over client models |
//! | [`run`] | the one run entry point: the [`run::RunConfig`] builder and [`run::RunOutcome`] |
//! | [`shard`] | partitioned scale-out: seeded catalog sharding with byte-identical merge |
//! | [`distribution`] | the distributed metro tier: cross-server routing, backbone capacity, peer-assisted delivery accounting |
//! | [`pool`] | the deterministic scoped worker pool (order-preserving, attributable panics) |
//! | [`prelude`] | the one-stop public run surface (`use sb_sim::prelude::*`) |
//!
//! ## Example: measure a Skyscraper client empirically
//!
//! ```
//! use sb_core::prelude::*;
//! use sb_core::plan::VideoId;
//! use sb_sim::policy::{schedule_client, ClientPolicy};
//!
//! let cfg = SystemConfig::paper_defaults(Mbps(300.0));
//! let plan = Skyscraper::with_width(Width::capped(52).unwrap())
//!     .plan(&cfg)
//!     .unwrap();
//! let sched = schedule_client(
//!     &plan,
//!     VideoId(0),
//!     Minutes(7.3),
//!     cfg.display_rate,
//!     ClientPolicy::LatestFeasible,
//! )
//! .unwrap();
//! assert!(sched.jitter_violations(1e-9).is_empty());
//! // The empirical peak buffer respects the analytic bound 60·b·D₁·(W−1).
//! let analytic = Skyscraper::with_width(Width::capped(52).unwrap())
//!     .metrics(&cfg)
//!     .unwrap()
//!     .buffer_requirement;
//! assert!(sched.peak_buffer().value() <= analytic.value() * (1.0 + 1e-6));
//! ```

#![forbid(unsafe_code)]

pub mod agenda;
pub mod checkpoint;
pub mod cycle_record;
pub mod distribution;
pub mod e2e;
pub mod engine;
pub mod faults;
pub mod pausing;
pub mod policy;
pub mod pool;
pub mod prelude;
pub mod receive_all;
pub mod run;
pub mod schedule;
pub mod shard;
pub mod sink;
pub mod system;
pub mod trace;

pub use agenda::{Agenda, AgendaEntry, AgendaKind, HeapAgenda, MinQueue, WheelAgenda, WheelStats};
pub use checkpoint::{
    decode_state, CheckpointError, CheckpointState, Killed, Probe, ShardCrash, ShardRun, Verdict,
};
pub use cycle_record::{channel_windows, record_cycles};
pub use distribution::{
    route_catalog, DistributionConfig, RouteOutcome, SegmentWindow, SessionRecord,
};
pub use e2e::{replay, E2eReport, PacketConfig};
pub use engine::{Engine, EngineStats, EventId, FrozenEngine};
pub use faults::{
    apply_losses, jitter_free_with_stalls, LossModel, LossProcess, Stall, StallReport,
};
pub use pausing::{schedule_pausing_client, PausingSchedule};
pub use policy::{schedule_client, ClientPolicy};
pub use pool::parallel_map;
pub use receive_all::{record_all, RecordingSchedule};
pub use run::{ConfigError, RunConfig, RunOutcome, RunParts};
pub use schedule::{ClientSchedule, Download, JitterViolation};
pub use shard::{merge_shard_runs, plan_shards, shard_of, ShardSlice};
pub use sink::{CollectTraces, FoldState, NullSink, SessionSummary, StreamingFold, TraceSink};
pub use system::{Request, SystemReport, SystemSim};
pub use trace::{
    ClientModel, CycleRecordingClient, PausingClient, Reception, RecordingClient, SessionTrace,
    TraceViolation,
};
