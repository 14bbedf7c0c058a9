//! The one-pass session measurement against its oracles, bit for bit.
//!
//! `SessionTrace::sweep_scalars` is what every served session's trace
//! analytics run through: two sorts and a merge instead of the three
//! full sorts behind `playback_end`, `peak_buffer`, `total_received` and
//! `max_concurrent_receptions`. Those functions stay as the oracles; this
//! suite compares `f64::to_bits` of every scalar against them, for every
//! client model at random arrivals and bandwidths, and for hand-built
//! traces aimed at the merge's tie rules: equal start times, an end
//! within 1e-9 of a start, vertices within 1e-12 of each other, and
//! zero-duration receptions. One scratch is reused across all cases, as
//! a run reuses it across sessions.

use proptest::prelude::*;
use vod_units::{Mbits, Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{Ctifb, HarmonicBroadcasting, PermutationPyramid, PyramidBroadcasting};
use sb_sim::policy::ClientPolicy;
use sb_sim::trace::{
    ClientModel, CycleRecordingClient, PausingClient, Reception, RecordingClient, SessionTrace,
    SweepScratch,
};

/// Every scalar of the one pass equals its oracle's bit pattern.
fn assert_matches_oracles(trace: &SessionTrace, scratch: &mut SweepScratch, what: &str) {
    let m = trace.sweep_scalars(scratch);
    assert_eq!(
        m.playback_end.value().to_bits(),
        trace.playback_end().value().to_bits(),
        "{what}: playback_end"
    );
    assert_eq!(
        m.peak_buffer.value().to_bits(),
        trace.peak_buffer().value().to_bits(),
        "{what}: peak_buffer"
    );
    assert_eq!(
        m.total_received.value().to_bits(),
        trace.total_received().value().to_bits(),
        "{what}: total_received"
    );
    assert_eq!(
        m.max_concurrent_receptions,
        trace.max_concurrent_receptions(),
        "{what}: max_concurrent_receptions"
    );
}

/// Every client model against the plan its scheme prescribes, at
/// bandwidth `bw`; schemes that cannot be planned at `bw` are left out.
fn lineup(bw: f64) -> Vec<(String, ChannelPlan, Box<dyn ClientModel>)> {
    let cfg = SystemConfig::paper_defaults(Mbps(bw));
    let mut out: Vec<(String, ChannelPlan, Box<dyn ClientModel>)> = Vec::new();
    let mut add = |name: &str, plan: sb_core::error::Result<ChannelPlan>, model| {
        if let Ok(plan) = plan {
            out.push((format!("{name} @ {bw} Mb/s"), plan, model));
        }
    };
    let sb = Skyscraper::with_width(Width::Capped(52));
    add(
        "latest-feasible on SB:W=52",
        sb.plan(&cfg),
        Box::new(ClientPolicy::LatestFeasible),
    );
    add(
        "pb-earliest on PB:a",
        PyramidBroadcasting::a().plan(&cfg),
        Box::new(ClientPolicy::PbEarliest),
    );
    add(
        "pausing on PPB:b",
        PermutationPyramid::b().plan(&cfg),
        Box::new(PausingClient),
    );
    add(
        "original recording on HB",
        HarmonicBroadcasting::original().plan(&cfg),
        Box::new(RecordingClient {
            playback_delay: Minutes(0.0),
        }),
    );
    let delayed = HarmonicBroadcasting::delayed();
    if let Ok(slot) = delayed.slot(&cfg) {
        add(
            "delayed recording on HB",
            delayed.plan(&cfg),
            Box::new(RecordingClient {
                playback_delay: slot,
            }),
        );
    }
    add(
        "cycle recording on CTIFB",
        Ctifb.plan(&cfg),
        Box::new(CycleRecordingClient),
    );
    out
}

fn reception(start: f64, duration: f64, rate: f64) -> Reception {
    Reception {
        segment: 0,
        channel: 0,
        start: Minutes(start),
        duration: Minutes(duration),
        rate: Mbps(rate),
        content_offset: Mbits(0.0),
        size: Mbits(rate * duration * 60.0),
    }
}

fn trace(playback_start: f64, receptions: Vec<Reception>) -> SessionTrace {
    SessionTrace {
        arrival: Minutes(0.0),
        playback_start: Minutes(playback_start),
        display_rate: Mbps(1.5),
        segment_sizes: vec![Mbits(90.0), Mbits(180.0), Mbits(45.0)],
        receptions,
    }
}

#[test]
fn hand_built_traces_match_the_oracles() {
    let mut scratch = SweepScratch::default();

    assert_matches_oracles(&trace(0.5, Vec::new()), &mut scratch, "no receptions");

    // Forty receptions tuned at one instant, as a receive-all client
    // does, with equal and distinct rates and equal end times.
    let same_start: Vec<Reception> = (0..40)
        .map(|i| {
            reception(
                1.25,
                0.5 + f64::from(i % 7) * 0.25,
                1.5 / f64::from(1 + i % 5),
            )
        })
        .collect();
    assert_matches_oracles(&trace(1.25, same_start), &mut scratch, "equal starts");

    // An end exactly 1e-9 (as the oracle computes it) before, at and
    // after a start: the ±1 sweep's end-first tie rule decides.
    for k in -3i32..=3 {
        let first = reception(0.1, 0.7, 1.5);
        let end = first.end().value();
        let second = reception(end - 1e-9 + f64::from(k) * 1e-12, 0.4, 0.75);
        assert_matches_oracles(
            &trace(0.3, vec![first, second]),
            &mut scratch,
            &format!("end 1e-9 from a start, offset {k}e-12"),
        );
    }

    // Breakpoints closer than the 1e-12 deduplication tolerance,
    // including chains where only the last kept point decides.
    let close: Vec<Reception> = [0.0, 4e-13, 8e-13, 1.2e-12, 3e-12, 3.5e-12]
        .iter()
        .enumerate()
        .map(|(i, &d)| reception(2.0 + d, 0.3 + d * f64::from(i as u8), 0.5))
        .collect();
    assert_matches_oracles(&trace(2.0 + 2e-13, close), &mut scratch, "close vertices");

    // Zero-duration receptions, alone and on top of others.
    let zero = vec![
        reception(1.0, 0.0, 1.5),
        reception(1.0, 0.25, 0.75),
        reception(1.25, 0.0, 0.5),
        reception(1.25, 0.0, 0.5),
    ];
    assert_matches_oracles(&trace(1.0, zero), &mut scratch, "zero duration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every client model's sessions, at random arrivals and bandwidths.
    #[test]
    fn client_model_sessions_match_the_oracles(
        bw in 150.0f64..420.0,
        arrivals in prop::collection::vec(0.0f64..240.0, 1..6),
        video in 0usize..10,
    ) {
        let cfg = SystemConfig::paper_defaults(Mbps(bw));
        let mut scratch = SweepScratch::default();
        for (name, plan, model) in lineup(bw) {
            let index = plan.index();
            let video = VideoId(video % plan.num_videos().max(1));
            for &at in &arrivals {
                let Ok(t) = model.session_indexed(&index, video, Minutes(at), cfg.display_rate)
                else {
                    continue;
                };
                assert_matches_oracles(&t, &mut scratch, &format!("{name} at {at}"));
            }
        }
    }

    /// Random traces over a coarse time grid, so starts, ends and
    /// playback bounds collide often; durations include zero.
    #[test]
    fn colliding_random_traces_match_the_oracles(
        starts in prop::collection::vec(0u32..12, 0..40),
        lengths in prop::collection::vec(0u32..6, 40),
        rates in prop::collection::vec(0u32..4, 40),
        nudges in prop::collection::vec(0u32..4, 40),
        play in 0u32..12,
    ) {
        // A nudge moves a start by 0, 5e-13, 1e-9 or 2e-9 minutes: into
        // the dedup tolerance or onto the ±1 sweep's end-first shift.
        let nudge = [0.0, 5e-13, 1e-9, 2e-9];
        let receptions: Vec<Reception> = starts
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                reception(
                    f64::from(s) * 0.25 + nudge[nudges[i] as usize],
                    f64::from(lengths[i]) * 0.25,
                    [0.5, 0.75, 1.5, 3.0][rates[i] as usize],
                )
            })
            .collect();
        let mut scratch = SweepScratch::default();
        assert_matches_oracles(
            &trace(f64::from(play) * 0.25, receptions),
            &mut scratch,
            "random trace",
        );
    }
}
