//! Crash-recovery shard supervisor with deterministic chaos injection.
//!
//! The scale-out executor (`sb_sim::shard`) runs every shard exactly
//! once and assumes it completes. This module drops that assumption:
//! each shard becomes a **restartable unit** that checkpoints its full
//! execution state every `checkpoint_every` served sessions
//! (`sb_sim::checkpoint`), and the [`Supervisor`] restarts killed
//! shards from their latest intact checkpoint on a bounded-exponential
//! [`Backoff`] schedule.
//!
//! Crashes are injected, not suffered: a [`CrashScript`] names, ahead
//! of time, exactly which shard dies when (`kill:1@tick:500`,
//! `kill:0@ckpt:2`) and which checkpoint is silently corrupted on the
//! way to stable storage (`corrupt:1@ckpt:1`, exercising the checksum
//! rejection and the fall-back to the previous checkpoint). Because the
//! script, the checkpoint cadence, and the backoff schedule are all
//! deterministic — delays are *modeled*, summed into
//! [`RecoveryStats::recovery_delay`], never slept — a killed-and-resumed
//! run is **bitwise identical** to an uninterrupted one, for every shard
//! count × thread count. That invariant is this
//! module's whole point, and `tests/recovery_supervisor.rs` plus
//! `scripts/verify.sh` pin it.
//!
//! When a shard exhausts its restart budget the run degrades instead of
//! dying: [`Recovered::Partial`] carries the merged outcome of the
//! surviving shards plus an explicit [`MissingShard`] marker per lost
//! one — never a panic, never a silently smaller result.

use vod_units::Minutes;

use sb_sim::policy::PolicyError;
use sb_sim::{
    merge_shard_runs, parallel_map, plan_shards, AgendaKind, Probe, Request, RunOutcome,
    ShardCrash, ShardRun, ShardSlice, SystemSim, Verdict,
};

use crate::backoff::Backoff;

/// Pool/merge label supervised runs report errors under.
const LABEL: &str = "recovery";

/// What fires a scripted crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Kill the shard just before it processes the first event at or
    /// after this engine tick.
    AtTick(u64),
    /// Kill the shard immediately after it writes checkpoint number `k`
    /// (1-based: the k-th checkpoint of the shard's timeline).
    AtCheckpoint(u64),
    /// Corrupt checkpoint number `k` in the supervisor's store (a bit
    /// flip on the way to stable storage). Not a crash by itself — pair
    /// it with a later kill to exercise the checksum rejection and the
    /// fall-back to the previous checkpoint.
    CorruptCheckpoint(u64),
}

/// One scripted fault: a trigger aimed at a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The shard this fault targets.
    pub shard: usize,
    /// When (and what) fires.
    pub trigger: CrashTrigger,
}

/// A deterministic schedule of shard crashes and checkpoint corruptions.
///
/// Each event fires **once** per run, across restart attempts: a shard
/// killed at tick 500 and resumed does not die at tick 500 again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashScript {
    events: Vec<CrashEvent>,
}

impl CrashScript {
    /// The empty script: no chaos, plain supervised execution.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A script firing exactly these events.
    #[must_use]
    pub fn new(events: Vec<CrashEvent>) -> Self {
        Self { events }
    }

    /// The scripted events.
    #[must_use]
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Whether the script injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A seeded pseudo-random script: `kills` kill-at-checkpoint events
    /// spread over `shards` shards by a splitmix64 stream — the same
    /// `(seed, shards, kills)` always yields the same script.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn seeded(seed: u64, shards: usize, kills: usize) -> Self {
        assert!(shards > 0, "no zero-shard systems");
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let events = (0..kills)
            .map(|_| {
                let h = next();
                CrashEvent {
                    shard: (h % shards as u64) as usize,
                    trigger: CrashTrigger::AtCheckpoint(1 + (h >> 32) % 3),
                }
            })
            .collect();
        Self { events }
    }

    /// Parse a `;`-separated chaos spec, e.g.
    /// `kill:1@tick:500;kill:0@ckpt:2;corrupt:1@ckpt:1`.
    ///
    /// Grammar per item: `kill:<shard>@tick:<t>`, `kill:<shard>@ckpt:<k>`,
    /// or `corrupt:<shard>@ckpt:<k>`. Whitespace around items is
    /// ignored; an empty spec is the empty script.
    ///
    /// # Errors
    /// [`RecoveryError::BadSpec`] naming the offending item.
    pub fn parse(spec: &str) -> Result<Self, RecoveryError> {
        let bad = |item: &str, what: &str| RecoveryError::BadSpec {
            item: item.to_string(),
            what: what.to_string(),
        };
        let mut events = Vec::new();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let Some((head, tail)) = item.split_once('@') else {
                return Err(bad(item, "expected '<op>:<shard>@<trigger>:<n>'"));
            };
            let Some((op, shard)) = head.split_once(':') else {
                return Err(bad(item, "expected '<op>:<shard>' before the '@'"));
            };
            let Ok(shard) = shard.trim().parse::<usize>() else {
                return Err(bad(item, "shard must be a non-negative integer"));
            };
            let Some((tkind, tval)) = tail.split_once(':') else {
                return Err(bad(item, "expected '<trigger>:<n>' after the '@'"));
            };
            let Ok(n) = tval.trim().parse::<u64>() else {
                return Err(bad(item, "trigger value must be a non-negative integer"));
            };
            let trigger = match (op.trim(), tkind.trim()) {
                ("kill", "tick") => CrashTrigger::AtTick(n),
                ("kill", "ckpt") => CrashTrigger::AtCheckpoint(n),
                ("corrupt", "ckpt") => CrashTrigger::CorruptCheckpoint(n),
                ("corrupt", "tick") => {
                    return Err(bad(item, "corruption targets checkpoints, not ticks"));
                }
                _ => {
                    return Err(bad(
                        item,
                        "unknown op/trigger (kill@tick, kill@ckpt, corrupt@ckpt)",
                    ))
                }
            };
            events.push(CrashEvent { shard, trigger });
        }
        Ok(Self { events })
    }

    /// Reject events aimed at shards the run does not have.
    ///
    /// # Errors
    /// [`RecoveryError::UnknownShard`] for the first out-of-range target.
    pub fn validate(&self, shards: usize) -> Result<(), RecoveryError> {
        for ev in &self.events {
            if ev.shard >= shards {
                return Err(RecoveryError::UnknownShard {
                    shard: ev.shard,
                    shards,
                });
            }
        }
        Ok(())
    }
}

/// Why a supervised run could not be set up or finished.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// `checkpoint_every` was zero — the supervisor cannot restart a
    /// shard that never checkpoints on a cadence of zero.
    ZeroCadence,
    /// The chaos script targets a shard the run does not have.
    UnknownShard {
        /// The scripted target.
        shard: usize,
        /// The run's shard count.
        shards: usize,
    },
    /// A chaos spec item failed to parse.
    BadSpec {
        /// The offending item.
        item: String,
        /// What was wrong with it.
        what: String,
    },
    /// The simulation itself failed deterministically (e.g. a request
    /// for an unknown video) — restarts cannot help.
    Sim(PolicyError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::ZeroCadence => write!(
                f,
                "checkpoint cadence is 0 sessions; the supervisor needs a cadence of at least 1"
            ),
            RecoveryError::UnknownShard { shard, shards } => write!(
                f,
                "chaos script targets shard {shard}, but the run has only {shards} shard(s)"
            ),
            RecoveryError::BadSpec { item, what } => {
                write!(f, "bad chaos spec item {item:?}: {what}")
            }
            RecoveryError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The run shape a supervised execution shares with `RunConfig`: the
/// supervisor needs the borrowing slots (`sink`, `recorder`) gone but
/// everything that decides *bytes* kept.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Shard count (≥ 1).
    pub shards: usize,
    /// Worker threads for the shard pool (0 = one per core).
    pub threads: usize,
    /// Seed for the catalog-to-shard hash.
    pub seed: u64,
    /// Optional per-video owning-shard table.
    pub partition: Option<&'a [usize]>,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        Self {
            shards: 1,
            threads: 1,
            seed: 0,
            partition: None,
        }
    }
}

/// Bookkeeping of everything the supervisor did, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryStats {
    /// Scripted kills that actually fired.
    pub crashes_injected: u64,
    /// Restarts that resumed from an intact checkpoint.
    pub restores: u64,
    /// Checkpoints rejected by the checksum on restore.
    pub corrupt_rejected: u64,
    /// Sessions re-executed because they post-dated the restored
    /// checkpoint (the cost of the cadence).
    pub replayed_sessions: u64,
    /// Checkpoints written across all shards and attempts.
    pub checkpoints_taken: u64,
    /// Total *modeled* backoff delay across all restarts — the schedule
    /// is consulted and summed, never slept, so supervised runs stay
    /// deterministic and fast.
    pub recovery_delay: Minutes,
}

impl Default for RecoveryStats {
    fn default() -> Self {
        Self {
            crashes_injected: 0,
            restores: 0,
            corrupt_rejected: 0,
            replayed_sessions: 0,
            checkpoints_taken: 0,
            recovery_delay: Minutes(0.0),
        }
    }
}

impl RecoveryStats {
    fn absorb(&mut self, other: &RecoveryStats) {
        self.crashes_injected += other.crashes_injected;
        self.restores += other.restores;
        self.corrupt_rejected += other.corrupt_rejected;
        self.replayed_sessions += other.replayed_sessions;
        self.checkpoints_taken += other.checkpoints_taken;
        self.recovery_delay = Minutes(self.recovery_delay.value() + other.recovery_delay.value());
    }
}

/// A shard that exhausted its restart budget: the explicit marker a
/// degraded run carries instead of silently shrinking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingShard {
    /// The lost shard.
    pub shard: usize,
    /// Restart attempts consumed (the backoff's full budget).
    pub attempts: u32,
    /// The last crash, rendered.
    pub last_error: String,
}

/// A degraded supervised run: every surviving shard merged, every lost
/// one named.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRun {
    /// The canonical merge over the shards that completed.
    pub outcome: RunOutcome,
    /// One marker per lost shard, in shard order.
    pub missing: Vec<MissingShard>,
    /// What recovery cost, summed over all shards.
    pub stats: RecoveryStats,
}

/// What a supervised run produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovered {
    /// Every shard completed; `outcome` is bitwise identical to an
    /// uninterrupted `SystemSim::execute` of the same configuration.
    Complete {
        /// The merged run outcome.
        outcome: RunOutcome,
        /// What recovery cost.
        stats: RecoveryStats,
    },
    /// At least one shard exhausted its restart budget.
    Partial(PartialRun),
}

impl Recovered {
    /// The recovery bookkeeping, whichever way the run ended.
    #[must_use]
    pub fn stats(&self) -> &RecoveryStats {
        match self {
            Recovered::Complete { stats, .. } => stats,
            Recovered::Partial(p) => &p.stats,
        }
    }

    /// The merged outcome (over all shards, or the survivors).
    #[must_use]
    pub fn outcome(&self) -> &RunOutcome {
        match self {
            Recovered::Complete { outcome, .. } => outcome,
            Recovered::Partial(p) => &p.outcome,
        }
    }
}

/// Per-shard result of the supervised attempt loop.
enum ShardVerdict {
    Done(ShardRun, RecoveryStats),
    Lost(MissingShard, RecoveryStats),
    Fatal(PolicyError),
}

/// Runs shards as restartable units: checkpoint on a cadence, kill on
/// script, restore from the latest intact checkpoint, retry on a
/// bounded-exponential [`Backoff`], and degrade explicitly when the
/// budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct Supervisor {
    backoff: Backoff,
    checkpoint_every: u64,
}

impl Supervisor {
    /// A supervisor checkpointing every `checkpoint_every` served
    /// sessions and restarting on `backoff`.
    ///
    /// # Errors
    /// [`RecoveryError::ZeroCadence`] for `checkpoint_every == 0`.
    pub fn new(backoff: Backoff, checkpoint_every: u64) -> Result<Self, RecoveryError> {
        if checkpoint_every == 0 {
            return Err(RecoveryError::ZeroCadence);
        }
        Ok(Self {
            backoff,
            checkpoint_every,
        })
    }

    /// The checkpoint cadence, in served sessions.
    #[must_use]
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Execute `requests` against `sim` under supervision.
    ///
    /// Partitions exactly like `SystemSim::execute` (same
    /// `plan_shards`), runs each shard through the kill/checkpoint/
    /// restore attempt loop on the deterministic pool, and merges with
    /// the same ordered replay — so with every shard completing, the
    /// outcome is **bitwise identical** to an uninterrupted `execute`
    /// of the same configuration, whatever the chaos script did along
    /// the way.
    ///
    /// # Errors
    /// [`RecoveryError::UnknownShard`] if `chaos` targets a shard the
    /// run does not have; [`RecoveryError::Sim`] for deterministic
    /// simulation or merge failures (restarts cannot help those).
    pub fn run(
        &self,
        sim: &SystemSim<'_>,
        requests: &[Request],
        spec: &RunSpec<'_>,
        chaos: &CrashScript,
    ) -> Result<Recovered, RecoveryError> {
        chaos.validate(spec.shards)?;
        let slices = plan_shards(requests, spec.shards, spec.seed, spec.partition);
        let script: Vec<Vec<CrashTrigger>> = (0..spec.shards)
            .map(|s| {
                chaos
                    .events()
                    .iter()
                    .filter(|ev| ev.shard == s)
                    .map(|ev| ev.trigger)
                    .collect()
            })
            .collect();

        let work: Vec<(usize, &ShardSlice)> = slices.iter().enumerate().collect();
        let verdicts: Vec<ShardVerdict> =
            parallel_map(spec.threads, LABEL, &work, |_, &(s, slice)| {
                self.run_one_shard(sim, s, slice, &script[s])
            });

        let mut stats = RecoveryStats::default();
        let mut survivors: Vec<(usize, ShardRun)> = Vec::new();
        let mut missing: Vec<MissingShard> = Vec::new();
        for (s, verdict) in verdicts.into_iter().enumerate() {
            match verdict {
                ShardVerdict::Done(run, st) => {
                    stats.absorb(&st);
                    survivors.push((s, run));
                }
                ShardVerdict::Lost(m, st) => {
                    stats.absorb(&st);
                    missing.push(m);
                }
                ShardVerdict::Fatal(e) => return Err(RecoveryError::Sim(e)),
            }
        }

        let outcome = merge_shard_runs(survivors, LABEL).map_err(RecoveryError::Sim)?;
        if missing.is_empty() {
            Ok(Recovered::Complete { outcome, stats })
        } else {
            Ok(Recovered::Partial(PartialRun {
                outcome,
                missing,
                stats,
            }))
        }
    }

    /// One shard's full supervised lifetime: the attempt loop.
    fn run_one_shard(
        &self,
        sim: &SystemSim<'_>,
        shard: usize,
        slice: &ShardSlice,
        triggers: &[CrashTrigger],
    ) -> ShardVerdict {
        let mut stats = RecoveryStats::default();
        // Each trigger fires once across the shard's whole lifetime.
        let mut fired = vec![false; triggers.len()];
        // The supervisor's checkpoint store: the last two checkpoints as
        // `(checkpoint number, sessions at capture, bytes)`. Two, not
        // one, so a corrupted latest still leaves a fall-back.
        let mut store: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        // Sessions the shard had served when it was last killed; drives
        // the replayed-sessions accounting on the next launch.
        let mut killed_at_sessions: Option<u64> = None;
        let mut attempts: u32 = 0;

        loop {
            let resume_sessions = store.last().map_or(0, |&(_, sessions, _)| sessions);
            let resume: Option<Vec<u8>> = store.last().map(|(_, _, bytes)| bytes.clone());
            let mut probe = |p: Probe<'_>| -> Verdict {
                match p {
                    Probe::Event { tick } => {
                        for (i, trig) in triggers.iter().enumerate() {
                            if !fired[i] {
                                if let CrashTrigger::AtTick(t) = *trig {
                                    if tick >= t {
                                        fired[i] = true;
                                        return Verdict::Kill;
                                    }
                                }
                            }
                        }
                        Verdict::Continue
                    }
                    Probe::Checkpoint { index, encoded } => {
                        let mut bytes = encoded.to_vec();
                        let mut verdict = Verdict::Continue;
                        for (i, trig) in triggers.iter().enumerate() {
                            if fired[i] {
                                continue;
                            }
                            match *trig {
                                CrashTrigger::CorruptCheckpoint(k) if k == index => {
                                    fired[i] = true;
                                    let pos = bytes.len() / 2;
                                    bytes[pos] ^= 0xFF;
                                }
                                CrashTrigger::AtCheckpoint(k) if k == index => {
                                    fired[i] = true;
                                    verdict = Verdict::Kill;
                                }
                                _ => {}
                            }
                        }
                        store.push((index, index * self.checkpoint_every, bytes));
                        if store.len() > 2 {
                            store.remove(0);
                        }
                        verdict
                    }
                }
            };
            let result = sim.run_shard(
                slice,
                AgendaKind::Heap,
                self.checkpoint_every,
                resume.as_deref(),
                &mut probe,
            );

            // Any outcome but a checksum rejection means the attempt
            // actually ran from `resume_sessions`: settle the replay
            // accounting for the preceding kill.
            if !matches!(result, Err(ShardCrash::Corrupt(_))) {
                if let Some(at_kill) = killed_at_sessions.take() {
                    stats.replayed_sessions += at_kill.saturating_sub(resume_sessions);
                    if resume.is_some() {
                        stats.restores += 1;
                    }
                }
            }

            match result {
                Ok(run) => {
                    stats.checkpoints_taken += run.checkpoints_taken();
                    return ShardVerdict::Done(run, stats);
                }
                Err(ShardCrash::Corrupt(_)) => {
                    // The latest checkpoint failed its checksum before
                    // anything ran: drop it and fall back to the
                    // previous one (or a fresh start). No backoff — the
                    // shard never came up.
                    stats.corrupt_rejected += 1;
                    store.pop();
                }
                Err(ShardCrash::Killed(k)) => {
                    stats.crashes_injected += 1;
                    stats.checkpoints_taken += k.checkpoints_taken;
                    killed_at_sessions = Some(k.sessions_done);
                    match self.backoff.delay(attempts) {
                        Some(delay) => {
                            attempts += 1;
                            stats.recovery_delay =
                                Minutes(stats.recovery_delay.value() + delay.value());
                        }
                        None => {
                            return ShardVerdict::Lost(
                                MissingShard {
                                    shard,
                                    attempts,
                                    last_error: ShardCrash::Killed(k).to_string(),
                                },
                                stats,
                            );
                        }
                    }
                }
                Err(ShardCrash::Policy(e)) => return ShardVerdict::Fatal(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_documented_grammar() {
        let script =
            CrashScript::parse(" kill:1@tick:500 ; kill:0@ckpt:2 ; corrupt:1@ckpt:1 ;").unwrap();
        assert_eq!(
            script.events(),
            &[
                CrashEvent {
                    shard: 1,
                    trigger: CrashTrigger::AtTick(500)
                },
                CrashEvent {
                    shard: 0,
                    trigger: CrashTrigger::AtCheckpoint(2)
                },
                CrashEvent {
                    shard: 1,
                    trigger: CrashTrigger::CorruptCheckpoint(1)
                },
            ]
        );
        assert!(CrashScript::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_items_with_the_item_named() {
        for bad in [
            "kill:1",
            "kill@tick:5",
            "kill:x@tick:5",
            "kill:1@tick:x",
            "corrupt:1@tick:5",
            "explode:1@tick:5",
            "kill:1@epoch:5",
        ] {
            let err = CrashScript::parse(bad).unwrap_err();
            match err {
                RecoveryError::BadSpec { item, .. } => assert_eq!(item, bad),
                other => panic!("expected BadSpec for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let script = CrashScript::parse("kill:3@tick:5").unwrap();
        assert_eq!(script.validate(4), Ok(()));
        assert_eq!(
            script.validate(2),
            Err(RecoveryError::UnknownShard {
                shard: 3,
                shards: 2
            })
        );
    }

    #[test]
    fn seeded_scripts_are_deterministic_and_in_range() {
        let a = CrashScript::seeded(42, 4, 8);
        let b = CrashScript::seeded(42, 4, 8);
        assert_eq!(a, b);
        assert!(a.events().iter().all(|ev| ev.shard < 4));
        assert!(a.validate(4).is_ok());
        let c = CrashScript::seeded(43, 4, 8);
        assert_ne!(a, c, "a different seed should shuffle the script");
    }

    #[test]
    fn supervisor_rejects_a_zero_cadence() {
        let backoff = Backoff::fixed(Minutes(1.0)).unwrap();
        assert!(matches!(
            Supervisor::new(backoff, 0),
            Err(RecoveryError::ZeroCadence)
        ));
        assert!(Supervisor::new(backoff, 25).is_ok());
    }
}
