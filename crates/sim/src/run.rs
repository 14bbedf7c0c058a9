//! The one run entry point: [`RunConfig`] and [`RunOutcome`].
//!
//! Before this module the workspace had six run variants — four on
//! [`crate::system::SystemSim`] (`run`, `run_recorded`, `run_with_sink`,
//! `run_instrumented`) and two on `sb-control`'s `ControlledSim` (`run`,
//! `run_with_faults`) — each a different subset of {recorder, sink,
//! faults, stats}. Every new capability multiplied the surface again,
//! and none of them could scale out. [`RunConfig`] collapses the matrix
//! into one builder with optional slots:
//!
//! ```text
//! RunConfig::new(&requests)
//!     .sink(&mut fold)          // optional: stream finished traces
//!     .recorder(&mut registry)  // optional: metric event stream
//!     .faults(script)           // optional: control-plane fault payload
//!     .shards(4)                // optional: partitioned scale-out
//!     .threads(4)               // optional: worker pool for the shards
//!     .partition(&map)          // optional: scenario's video → shard table
//! ```
//!
//! consumed by `SystemSim::execute` (and, generically over the request
//! and fault payload types, by `ControlledSim::execute`). The outcome
//! always carries the report, the streamed [`SessionSummary`], merged
//! [`EngineStats`], and a metrics [`Snapshot`] — byte-identical for any
//! shard count and any thread count (see `sim::shard`).

use sb_metrics::{Recorder, Snapshot};

use crate::engine::EngineStats;
use crate::sink::{SessionSummary, TraceSink};
use crate::system::SystemReport;

/// Declarative description of one simulation run.
///
/// Generic over the request type `R` (the system sim's
/// [`crate::system::Request`], the control plane's `WorkloadRequest`)
/// and the fault payload `F` carried to fault-aware executors (`()` when
/// the executor takes none). Build with [`RunConfig::new`] plus the
/// chained setters; executors destructure via [`RunConfig::into_parts`].
pub struct RunConfig<'a, R, F = ()> {
    requests: &'a [R],
    sink: Option<&'a mut dyn TraceSink>,
    recorder: Option<&'a mut dyn Recorder>,
    faults: Option<F>,
    shards: usize,
    threads: usize,
    seed: u64,
    partition: Option<&'a [usize]>,
    checkpoint_every: Option<u64>,
}

impl<'a, R> RunConfig<'a, R> {
    /// A run over `requests` with every slot empty: one shard, one
    /// thread, seed 0, no sink, no recorder, no faults.
    #[must_use]
    pub fn new(requests: &'a [R]) -> Self {
        Self {
            requests,
            sink: None,
            recorder: None,
            faults: None,
            shards: 1,
            threads: 1,
            seed: 0,
            partition: None,
            checkpoint_every: None,
        }
    }
}

/// A [`RunConfig`] rejected up front by [`RunConfig::validate`] — the
/// typed version of mistakes that would otherwise surface as silent
/// wraps, panics, or dead knobs deep inside a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The partition table names an owning shard outside `0..shards`.
    ///
    /// The base executor forgives this by wrapping (`owner % shards`,
    /// so one table serves several shard counts); supervised runs
    /// validate strictly because a wrapped owner under a *recovery*
    /// scenario usually means the operator pinned a region to a shard
    /// that does not exist.
    PartitionOutOfRange {
        /// Video id (index into the partition table).
        video: usize,
        /// The table's claimed owning shard.
        owner: usize,
        /// The run's shard count.
        shards: usize,
    },
    /// `checkpoint_every(0)` — a cadence of zero checkpoints nothing.
    ZeroCheckpointCadence,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::PartitionOutOfRange {
                video,
                owner,
                shards,
            } => write!(
                f,
                "partition table maps video {video} to shard {owner}, but the run has only \
                 {shards} shard(s) (owners must lie in 0..{shards})"
            ),
            ConfigError::ZeroCheckpointCadence => write!(
                f,
                "checkpoint cadence is 0 sessions; use a cadence of at least 1, \
                 or omit checkpointing entirely"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl<'a, R, F> RunConfig<'a, R, F> {
    /// Stream every finished session trace into `sink`.
    ///
    /// With `shards(1)` the sink observes traces as they finish, in
    /// engine order, retaining nothing. With more shards the executor
    /// must buffer each shard's traces to replay them in global engine
    /// order — prefer the built-in streamed summary (the outcome's
    /// `fold`) for large sharded populations.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Stream metric events into `rec`, *in addition to* the private
    /// registry behind the outcome's snapshot. Sharded runs replay
    /// per-shard event logs into `rec` in shard order.
    #[must_use]
    pub fn recorder(mut self, rec: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Attach a fault payload, changing the config's fault type.
    ///
    /// What `F2` means is up to the executor: `ControlledSim::execute`
    /// takes its script-plus-degradation bundle; `SystemSim::execute`
    /// accepts only `()` (loss injection happens downstream of traces).
    #[must_use]
    pub fn faults<F2>(self, faults: F2) -> RunConfig<'a, R, F2> {
        RunConfig {
            requests: self.requests,
            sink: self.sink,
            recorder: self.recorder,
            faults: Some(faults),
            shards: self.shards,
            threads: self.threads,
            seed: self.seed,
            partition: self.partition,
            checkpoint_every: self.checkpoint_every,
        }
    }

    /// Partition the run across `shards` server shards (default 1).
    /// Results are byte-identical for every shard count.
    ///
    /// # Panics
    /// Panics if `shards` is zero — there is no zero-server system.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a run needs at least one shard");
        self.shards = shards;
        self
    }

    /// Worker threads for the shard pool (default 1; 0 = one per core).
    /// Purely an execution knob: results never depend on it.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Seed for the stable catalog-to-shard hash (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The scenario slot: a per-video owning-shard table
    /// (`map[video] % shards` is the shard that runs the session),
    /// replacing the default seeded hash. This is how a metropolitan
    /// scenario pins each region's catalog slice — and with it the
    /// region's arrival stream and channel budget — to one shard.
    /// Videos beyond the table's length fall back to the hash. Results
    /// stay byte-identical for every shard count either way: the
    /// partition only decides *where* a session runs, the ordered-replay
    /// merge restores the global order (see `sim::shard`).
    #[must_use]
    pub fn partition(mut self, map: &'a [usize]) -> Self {
        self.partition = Some(map);
        self
    }

    /// Checkpoint each shard every `sessions` served sessions (default:
    /// never). Only supervised executors (`sb-resilience`'s recovery
    /// supervisor) act on this; the plain `execute` path ignores it.
    /// A cadence of zero is rejected by [`RunConfig::validate`].
    #[must_use]
    pub fn checkpoint_every(mut self, sessions: u64) -> Self {
        self.checkpoint_every = Some(sessions);
        self
    }

    /// Validate the knob combination up front, before any shard runs.
    ///
    /// Opt-in strictness for supervised/CLI entry points: the base
    /// executor keeps its forgiving semantics (partition owners wrap by
    /// `% shards`), while callers that validate get typed errors instead.
    ///
    /// # Errors
    /// [`ConfigError::PartitionOutOfRange`] if the partition table names
    /// an owner `>= shards`; [`ConfigError::ZeroCheckpointCadence`] for
    /// `checkpoint_every(0)`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        if let Some(map) = self.partition {
            for (video, &owner) in map.iter().enumerate() {
                if owner >= self.shards {
                    return Err(ConfigError::PartitionOutOfRange {
                        video,
                        owner,
                        shards: self.shards,
                    });
                }
            }
        }
        Ok(())
    }

    /// Destructure into the executor-facing parts.
    #[must_use]
    pub fn into_parts(self) -> RunParts<'a, R, F> {
        RunParts {
            requests: self.requests,
            sink: self.sink,
            recorder: self.recorder,
            faults: self.faults,
            shards: self.shards,
            threads: self.threads,
            seed: self.seed,
            partition: self.partition,
            checkpoint_every: self.checkpoint_every,
        }
    }
}

/// The destructured fields of a [`RunConfig`], for executors.
pub struct RunParts<'a, R, F> {
    /// The request stream (need not be sorted).
    pub requests: &'a [R],
    /// Optional trace sink.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Optional caller-side recorder.
    pub recorder: Option<&'a mut dyn Recorder>,
    /// Optional fault payload.
    pub faults: Option<F>,
    /// Shard count (≥ 1).
    pub shards: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
    /// Shard-hash seed.
    pub seed: u64,
    /// Optional per-video owning-shard table (the scenario slot).
    pub partition: Option<&'a [usize]>,
    /// Optional checkpoint cadence in served sessions (supervised
    /// executors only).
    pub checkpoint_every: Option<u64>,
}

/// Everything a system run produces, whatever the slot combination.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The engine-side report (identical to the historical
    /// `SystemSim::run` output).
    pub summary: SystemReport,
    /// The streamed population summary ([`crate::sink::StreamingFold`]
    /// over every session, in global engine order).
    pub fold: SessionSummary,
    /// Engine statistics, summed across shards; `peak_agenda` is the
    /// *maximum* over shards (the largest single agenda anywhere) and is
    /// the one field that legitimately varies with the shard count.
    pub stats: EngineStats,
    /// Each shard's agenda high-water mark, in shard order (`len ==
    /// shards`): the per-server memory story of a scale-out run.
    pub shard_peak_agenda: Vec<u64>,
    /// Sessions routed to each shard, in shard order (`len == shards`):
    /// the per-server load story the distributed tier reads. Like
    /// `shard_peak_agenda`, this legitimately varies with the shard
    /// count and is excluded from byte-identity comparisons.
    pub shard_sessions: Vec<usize>,
    /// Snapshot of the run's private metrics registry, merged across
    /// shards in shard order.
    pub snapshot: Snapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_one_serial_unseeded_shard() {
        let reqs: Vec<u8> = vec![1, 2, 3];
        let parts = RunConfig::new(&reqs).into_parts();
        assert_eq!(parts.requests, &[1, 2, 3]);
        assert!(parts.sink.is_none());
        assert!(parts.recorder.is_none());
        assert!(parts.faults.is_none());
        assert_eq!((parts.shards, parts.threads, parts.seed), (1, 1, 0));
    }

    #[test]
    fn faults_setter_changes_the_payload_type() {
        let reqs: Vec<u8> = vec![9];
        let parts = RunConfig::new(&reqs)
            .shards(4)
            .threads(2)
            .seed(11)
            .faults("script")
            .into_parts();
        assert_eq!(parts.faults, Some("script"));
        assert_eq!(
            (parts.shards, parts.threads, parts.seed),
            (4, 2, 11),
            "knobs survive faults()"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let reqs: Vec<u8> = Vec::new();
        let _ = RunConfig::new(&reqs).shards(0);
    }

    #[test]
    fn validate_accepts_the_defaults_and_sane_knobs() {
        let reqs: Vec<u8> = vec![1];
        assert_eq!(RunConfig::new(&reqs).validate(), Ok(()));
        let map = [0usize, 1, 2];
        assert_eq!(
            RunConfig::new(&reqs)
                .shards(3)
                .partition(&map)
                .checkpoint_every(10)
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_zero_checkpoint_cadence() {
        let reqs: Vec<u8> = vec![1];
        let err = RunConfig::new(&reqs)
            .checkpoint_every(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroCheckpointCadence);
        assert!(err.to_string().contains("cadence"));
    }

    #[test]
    fn validate_rejects_partition_owners_beyond_the_shard_count() {
        let reqs: Vec<u8> = vec![1];
        let map = [0usize, 5, 1];
        let err = RunConfig::new(&reqs)
            .shards(2)
            .partition(&map)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::PartitionOutOfRange {
                video: 1,
                owner: 5,
                shards: 2
            }
        );
        assert!(err.to_string().contains("video 1"));
    }
}
