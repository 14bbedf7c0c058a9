//! The unified client session: one trace type, one buffer accounting.
//!
//! Every client model in this crate — the tune-at-start policies of
//! [`crate::policy`], the PPB pausing client of [`crate::pausing`], the
//! receive-everything Harmonic client of [`crate::receive_all`] — used to
//! carry its own playback/buffer/jitter arithmetic. A [`SessionTrace`] is
//! the common denominator they all reduce to: a list of [`Reception`]s,
//! each a constant-rate contiguous delivery of a content interval of one
//! segment. From that single representation this module derives, once:
//!
//! * **playback timing** — [`SessionTrace::playback_start_of`],
//!   [`SessionTrace::playback_end`], [`SessionTrace::startup_latency`];
//! * **the piecewise-linear buffer profile** —
//!   [`SessionTrace::buffer_profile`] / [`SessionTrace::peak_buffer`];
//! * **exact per-byte jitter checks** — [`SessionTrace::violations`],
//!   [`SessionTrace::worst_lateness`] (which generalises the closed-form
//!   per-segment test, PPB's first-byte-deadline test and HB's wrap-around
//!   shortfall: lateness of a constant-rate reception is linear in the
//!   content offset, so its maximum sits at an interval endpoint);
//! * **client I/O pressure** — [`SessionTrace::max_concurrent_receptions`],
//!   [`SessionTrace::peak_concurrent_receive_rate`],
//!   [`SessionTrace::single_tuner`].
//!
//! The [`ClientModel`] trait is the uniform entry point producing traces:
//! [`crate::policy::ClientPolicy`] (SB / PB / PPB-tune-at-start /
//! staggered), [`PausingClient`] (PPB max-saving) and [`RecordingClient`]
//! (Harmonic) all implement it, so [`crate::system::SystemSim`],
//! [`crate::faults`] loss injection and [`crate::e2e`] packet replay work
//! identically across every scheme in the paper.

use serde::{Deserialize, Serialize};
use vod_units::{MBytes, Mbits, Mbps, Minutes};

use sb_core::plan::{ChannelPlan, PlanIndex, VideoId};

use crate::cycle_record::{record_cycles, record_cycles_indexed};
use crate::pausing::schedule_pausing_client;
use crate::policy::{schedule_client, schedule_client_indexed, ClientPolicy, PolicyError};
use crate::receive_all::{record_all, record_all_indexed};

/// One contiguous constant-rate delivery of part of a segment.
///
/// `content_offset` is where the delivered bytes sit inside the segment:
/// a whole-segment download has offset zero and `size` equal to the
/// segment size; a PPB chunk or the wrap-around half of an HB recording
/// covers an interior interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reception {
    /// The segment being (partially) received.
    pub segment: usize,
    /// The plan channel delivering it.
    pub channel: usize,
    /// Wall-clock reception start, minutes.
    pub start: Minutes,
    /// Reception duration, minutes (`size / rate`).
    pub duration: Minutes,
    /// Reception rate (the channel rate).
    pub rate: Mbps,
    /// Byte offset of the delivered interval within the segment, Mbits.
    pub content_offset: Mbits,
    /// Delivered payload, Mbits.
    pub size: Mbits,
}

impl Reception {
    /// Wall-clock reception end.
    #[must_use]
    pub fn end(&self) -> Minutes {
        self.start + self.duration
    }
}

/// A reception that starts too late to deliver all its bytes on time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceViolation {
    /// Index of the late reception within the trace.
    pub reception: usize,
    /// The segment it delivers.
    pub segment: usize,
    /// Playback start of the segment.
    pub playback_start: Minutes,
    /// The latest start that would still be jitter-free.
    pub required_start: Minutes,
    /// The actual start.
    pub actual_start: Minutes,
}

/// The complete record of one client session, scheme-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// Arrival time of the request.
    pub arrival: Minutes,
    /// When playback of segment 0 begins.
    pub playback_start: Minutes,
    /// Display rate `b`.
    pub display_rate: Mbps,
    /// Segment sizes in playback order.
    pub segment_sizes: Vec<Mbits>,
    /// All receptions (any order; whole segments or interior intervals).
    pub receptions: Vec<Reception>,
}

impl SessionTrace {
    /// Playback duration of segment `i`.
    #[must_use]
    pub fn segment_duration(&self, i: usize) -> Minutes {
        (self.segment_sizes[i] / self.display_rate).to_minutes()
    }

    /// Playback start of segment `i`.
    #[must_use]
    pub fn playback_start_of(&self, i: usize) -> Minutes {
        let prefix: f64 = (0..i).map(|j| self.segment_duration(j).value()).sum();
        Minutes(self.playback_start.value() + prefix)
    }

    /// End of playback.
    #[must_use]
    pub fn playback_end(&self) -> Minutes {
        self.playback_start_of(self.segment_sizes.len())
    }

    /// The §5 access latency of this session: arrival → playback start.
    #[must_use]
    pub fn startup_latency(&self) -> Minutes {
        Minutes(self.playback_start.value() - self.arrival.value())
    }

    /// Running prefix of segment playback durations: entry `i` is the
    /// offset of segment `i`'s playback start from `playback_start`.
    /// Built with the same left-fold as [`SessionTrace::playback_start_of`]
    /// so the two agree bit-for-bit; lets the per-reception checks below
    /// run in linear rather than quadratic time.
    fn playback_prefix(&self) -> Vec<f64> {
        let mut prefix = Vec::with_capacity(self.segment_sizes.len() + 1);
        let mut acc = 0.0f64;
        prefix.push(acc);
        for j in 0..self.segment_sizes.len() {
            acc += self.segment_duration(j).value();
            prefix.push(acc);
        }
        prefix
    }

    fn required_start_with(&self, prefix: &[f64], i: usize) -> Minutes {
        let rec = &self.receptions[i];
        let b = self.display_rate.value() * 60.0; // Mbits per minute
        let r = rec.rate.value() * 60.0;
        let first_byte =
            self.playback_start.value() + prefix[rec.segment] + rec.content_offset.value() / b;
        if r >= b {
            Minutes(first_byte)
        } else {
            Minutes(first_byte + rec.size.value() * (1.0 / b - 1.0 / r))
        }
    }

    /// The latest start for reception `i` that still delivers every byte
    /// on time. Byte `x` of the interval (content offset `o + x`) arrives
    /// at `start + x/r` and is consumed at `pb + (o + x)/b`, so the
    /// constraint `start ≤ pb + o/b + x·(1/b − 1/r)` is tight at `x = 0`
    /// when `r ≥ b` and at `x = size` when `r < b`.
    #[must_use]
    pub fn required_start(&self, i: usize) -> Minutes {
        self.required_start_with(&self.playback_prefix(), i)
    }

    /// How late the most-delayed byte of the whole session arrives, in
    /// minutes past its playback deadline (negative = all on time). For
    /// each reception the lateness is linear in the content offset, so the
    /// session maximum is `max_i (start_i − required_start(i))`.
    #[must_use]
    pub fn worst_lateness(&self) -> f64 {
        let prefix = self.playback_prefix();
        self.receptions
            .iter()
            .enumerate()
            .map(|(i, rec)| rec.start.value() - self.required_start_with(&prefix, i).value())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// All receptions that start more than `tol` minutes past their
    /// latest jitter-free start.
    #[must_use]
    pub fn violations(&self, tol: f64) -> Vec<TraceViolation> {
        let prefix = self.playback_prefix();
        let mut out = Vec::new();
        for (i, rec) in self.receptions.iter().enumerate() {
            let required = self.required_start_with(&prefix, i);
            if rec.start.value() > required.value() + tol {
                out.push(TraceViolation {
                    reception: i,
                    segment: rec.segment,
                    playback_start: Minutes(self.playback_start.value() + prefix[rec.segment]),
                    required_start: required,
                    actual_start: rec.start,
                });
            }
        }
        out
    }

    /// `true` when no byte misses its deadline by more than `tol` minutes.
    #[must_use]
    pub fn is_jitter_free(&self, tol: f64) -> bool {
        self.violations(tol).is_empty()
    }

    /// Maximum number of simultaneously active receptions.
    #[must_use]
    pub fn max_concurrent_receptions(&self) -> usize {
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.receptions.len() * 2);
        for rec in &self.receptions {
            events.push((rec.start.value(), 1));
            events.push((rec.end().value() - 1e-9, -1));
        }
        events.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let mut cur = 0;
        let mut max = 0;
        for (_, delta) in events {
            cur += delta;
            max = max.max(cur);
        }
        max as usize
    }

    /// Peak aggregate reception rate across concurrent receptions — the
    /// "receiving" half of the client's disk-bandwidth requirement.
    #[must_use]
    pub fn peak_concurrent_receive_rate(&self) -> Mbps {
        let mut events: Vec<(f64, f64)> = Vec::with_capacity(self.receptions.len() * 2);
        for rec in &self.receptions {
            events.push((rec.start.value(), rec.rate.value()));
            events.push((rec.end().value() - 1e-9, -rec.rate.value()));
        }
        events.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let mut cur = 0.0f64;
        let mut max = 0.0f64;
        for (_, delta) in events {
            cur += delta;
            max = max.max(cur);
        }
        Mbps(max)
    }

    /// `true` when no two receptions overlap by more than `tol` minutes
    /// (the client has a single tuner).
    #[must_use]
    pub fn single_tuner(&self, tol: f64) -> bool {
        let mut sorted: Vec<(f64, f64)> = self
            .receptions
            .iter()
            .map(|r| (r.start.value(), r.end().value()))
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        sorted.windows(2).all(|w| w[0].1 <= w[1].0 + tol)
    }

    /// The buffer-occupancy curve as `(time, Mbits)` vertices: total data
    /// received minus total data consumed, evaluated at every breakpoint
    /// (reception starts/ends, playback start/end).
    #[must_use]
    pub fn buffer_profile(&self) -> Vec<(Minutes, Mbits)> {
        let mut out = Vec::with_capacity(2 * self.receptions.len() + 2);
        self.sweep_buffer(|t, b| out.push((t, b)));
        out
    }

    /// Hand each vertex of [`SessionTrace::buffer_profile`] to `visit`,
    /// in time order, without materializing the curve.
    fn sweep_buffer(&self, mut visit: impl FnMut(Minutes, Mbits)) {
        let play_start = self.playback_start.value();
        let play_end = self.playback_end().value();
        let mut points: Vec<f64> = vec![play_start, play_end];
        for rec in &self.receptions {
            points.push(rec.start.value());
            points.push(rec.end().value());
        }
        points.sort_by(f64::total_cmp);
        points.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        // One sweep over rate-change events instead of re-integrating every
        // reception at every breakpoint: the aggregate receive rate is
        // piecewise constant, so `received` advances by `rate · Δt` between
        // consecutive event/breakpoint times.
        let mut events: Vec<(f64, f64)> = Vec::with_capacity(self.receptions.len() * 2);
        for rec in &self.receptions {
            let r = rec.rate.value() * 60.0; // Mbits per minute
            events.push((rec.start.value(), r));
            events.push((rec.end().value(), -r));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

        let total: f64 = self.segment_sizes.iter().map(|s| s.value()).sum();
        let mut received = 0.0f64;
        let mut rate = 0.0f64;
        let mut cursor = points.first().copied().unwrap_or(0.0);
        let mut next_event = 0usize;
        for &t in &points {
            while next_event < events.len() && events[next_event].0 <= t {
                let (et, dr) = events[next_event];
                let et = et.max(cursor);
                if et > cursor {
                    received += rate * (et - cursor);
                    cursor = et;
                }
                rate += dr;
                next_event += 1;
            }
            if t > cursor {
                received += rate * (t - cursor);
                cursor = t;
            }
            let played = (t - play_start).clamp(0.0, play_end - play_start);
            let consumed = (self.display_rate.value() * played * 60.0).min(total);
            visit(Minutes(t), Mbits((received - consumed).max(0.0)));
        }
    }

    /// Peak of the buffer-occupancy curve.
    #[must_use]
    pub fn peak_buffer(&self) -> Mbits {
        let mut peak = Mbits::ZERO;
        self.sweep_buffer(|_, b| peak = peak.max(b));
        peak
    }

    /// Peak buffer in the paper's Figure-8 unit.
    #[must_use]
    pub fn peak_buffer_mbytes(&self) -> MBytes {
        self.peak_buffer().to_mbytes()
    }

    /// Total payload across all receptions.
    #[must_use]
    pub fn total_received(&self) -> Mbits {
        Mbits(self.receptions.iter().map(|r| r.size.value()).sum())
    }

    /// Structural sanity: receptions reference real channels at the
    /// channel's rate, start no earlier than arrival, stay inside their
    /// segment, and together deliver each segment exactly once.
    pub fn validate(&self, plan: &ChannelPlan) -> Result<(), String> {
        let mut covered = vec![0.0f64; self.segment_sizes.len()];
        for (i, rec) in self.receptions.iter().enumerate() {
            let size = self
                .segment_sizes
                .get(rec.segment)
                .ok_or_else(|| format!("reception {i} delivers unknown segment {}", rec.segment))?;
            if rec.start.value() + 1e-9 < self.arrival.value() {
                return Err(format!(
                    "reception {i} at {} precedes arrival {}",
                    rec.start, self.arrival
                ));
            }
            let ch = plan
                .channels
                .get(rec.channel)
                .ok_or_else(|| format!("reception {i} uses unknown channel {}", rec.channel))?;
            if !ch.rate.approx_eq(rec.rate, 1e-9) {
                return Err(format!(
                    "reception {i} rate mismatch with channel {}",
                    rec.channel
                ));
            }
            let end = rec.content_offset.value() + rec.size.value();
            if end > size.value() * (1.0 + 1e-9) + 1e-9 {
                return Err(format!(
                    "reception {i} covers [{}, {end}) past segment size {size}",
                    rec.content_offset
                ));
            }
            covered[rec.segment] += rec.size.value();
        }
        for (segment, (&got, size)) in covered.iter().zip(&self.segment_sizes).enumerate() {
            if (got - size.value()).abs() > 1e-6 * size.value().max(1.0) {
                return Err(format!("segment {segment}: received {got} of {size} Mbit"));
            }
        }
        Ok(())
    }
}

/// A client model: anything that can turn an arrival against a broadcast
/// plan into a [`SessionTrace`].
///
/// This is the single entry point [`crate::system::SystemSim`] (and the
/// fault/replay pipelines via the traces it yields) uses for every scheme:
/// pass a [`ClientPolicy`] for the tune-at-start schemes, a
/// [`PausingClient`] for PPB's max-saving client, a [`RecordingClient`]
/// for Harmonic Broadcasting.
///
/// `Sync` is a supertrait because the sharded executor shares one model
/// across its shard workers; models are pure functions of their inputs
/// (all implementors here are plain data), so this costs nothing.
pub trait ClientModel: Sync {
    /// Compute the session for one client arrival.
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError>;

    /// [`ClientModel::session`] against a prebuilt [`PlanIndex`] — same
    /// trace, bit for bit. The engine builds the index once per run and
    /// calls this for every arrival; models with an indexed scheduler
    /// override it, everything else falls back to the scanning path.
    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        self.session(index.plan(), video, arrival, display_rate)
    }
}

impl<M: ClientModel + ?Sized> ClientModel for &M {
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        (**self).session(plan, video, arrival, display_rate)
    }

    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        (**self).session_indexed(index, video, arrival, display_rate)
    }
}

impl ClientModel for Box<dyn ClientModel + '_> {
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        (**self).session(plan, video, arrival, display_rate)
    }

    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        (**self).session_indexed(index, video, arrival, display_rate)
    }
}

impl ClientModel for ClientPolicy {
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        schedule_client(plan, video, arrival, display_rate, *self).map(|s| s.trace())
    }

    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        schedule_client_indexed(index, video, arrival, display_rate, *self).map(|s| s.trace())
    }
}

/// The PPB max-saving client as a [`ClientModel`]
/// (see [`crate::pausing`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PausingClient;

impl ClientModel for PausingClient {
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        schedule_pausing_client(plan, video, arrival, display_rate).map(|s| s.trace())
    }
}

/// The Harmonic receive-everything client as a [`ClientModel`]
/// (see [`crate::receive_all`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecordingClient {
    /// Delay between tune-in and playback start (zero reproduces the
    /// original — buggy — HB rule; one slot time is the fix).
    pub playback_delay: Minutes,
}

impl ClientModel for RecordingClient {
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        record_all(plan, video, arrival, display_rate, self.playback_delay).map(|s| s.trace())
    }

    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        record_all_indexed(index, video, arrival, display_rate, self.playback_delay)
            .map(|s| s.trace())
    }
}

/// The CTIFB cycle-recording client as a [`ClientModel`]
/// (see [`crate::cycle_record`]): tune every channel at the next slot
/// boundary, record each for one full period, play from the boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleRecordingClient;

impl ClientModel for CycleRecordingClient {
    fn session(
        &self,
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        record_cycles(plan, video, arrival, display_rate)
    }

    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        record_cycles_indexed(index, video, arrival, display_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::config::SystemConfig;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};

    #[test]
    fn sb_trace_matches_legacy_schedule() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let s = schedule_client(
            &plan,
            VideoId(0),
            Minutes(7.3),
            cfg.display_rate,
            ClientPolicy::LatestFeasible,
        )
        .unwrap();
        let t = ClientPolicy::LatestFeasible
            .session(&plan, VideoId(0), Minutes(7.3), cfg.display_rate)
            .unwrap();
        t.validate(&plan).unwrap();
        assert_eq!(t.peak_buffer(), s.peak_buffer());
        assert_eq!(t.startup_latency(), s.startup_latency());
        assert_eq!(t.max_concurrent_receptions(), s.max_concurrent_downloads());
        assert!(t.is_jitter_free(1e-9));
    }

    #[test]
    fn pausing_trace_covers_video_and_validates() {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        let plan = PermutationPyramid::b().plan(&cfg).unwrap();
        let t = PausingClient
            .session(&plan, VideoId(0), Minutes(3.7), cfg.display_rate)
            .unwrap();
        t.validate(&plan).unwrap();
        assert!(t.is_jitter_free(1e-6));
        assert!(t.single_tuner(1e-6));
        let total: f64 = t.segment_sizes.iter().map(|s| s.value()).sum();
        assert!((t.total_received().value() - total).abs() < 1e-6 * total);
    }

    #[test]
    fn recording_trace_reproduces_the_hb_bug_and_fix() {
        let cfg = SystemConfig::paper_defaults(Mbps(60.0));
        let scheme = HarmonicBroadcasting::original();
        let plan = scheme.plan(&cfg).unwrap();
        let slot = scheme.slot(&cfg).unwrap();
        let mut starved = 0usize;
        for i in 0..40 {
            let arrival = Minutes(slot.value() * i as f64 / 40.0 * 7.0);
            let buggy = RecordingClient::default()
                .session(&plan, VideoId(0), arrival, cfg.display_rate)
                .unwrap();
            buggy.validate(&plan).unwrap();
            if !buggy.is_jitter_free(1e-6) {
                starved += 1;
            }
            let fixed = RecordingClient {
                playback_delay: slot,
            }
            .session(&plan, VideoId(0), arrival, cfg.display_rate)
            .unwrap();
            assert!(fixed.is_jitter_free(1e-6), "arrival {arrival}");
        }
        assert!(starved > 0, "original HB must starve at some phases");
    }
}
