//! Every recorder sees the same metric series.
//!
//! A run records `sim_channel_busy_minutes{channel}` into a dense
//! per-channel accumulator and hands each histogram to its recorder once,
//! at the end, through `Recorder::merge_histogram`. The outcome's own
//! snapshot, a caller's `Registry`, and an `OpLog` replayed into a fresh
//! `Registry` must all hold the same bytes — and the busy series must be
//! the very histograms one `observe` per reception would have built.

use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::BroadcastScheme;
use sb_metrics::{OpLog, Registry, Snapshot};
use sb_pyramid::HarmonicBroadcasting;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::RecordingClient;
use sb_sim::{CollectTraces, RunConfig};
use vod_units::{Mbps, Minutes};

fn json(s: &Snapshot) -> String {
    serde_json::to_string(s).unwrap()
}

#[test]
fn caller_registry_and_replayed_oplog_equal_the_outcome_snapshot() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let scheme = HarmonicBroadcasting::delayed();
    let plan = scheme.plan(&cfg).unwrap();
    let sim = SystemSim::new(
        &plan,
        cfg.display_rate,
        RecordingClient {
            playback_delay: scheme.slot(&cfg).unwrap(),
        },
    );
    let requests: Vec<Request> = (0..30)
        .map(|i| Request {
            at: Minutes(90.0 * (f64::from(i) + 0.37) / 30.0),
            video: VideoId(i as usize % 10),
        })
        .collect();

    for shards in [1, 4] {
        let run = || RunConfig::new(&requests).shards(shards).threads(2);
        let mut reg = Registry::new();
        let mut collect = CollectTraces::new();
        let out = sim
            .execute(run().recorder(&mut reg).sink(&mut collect))
            .unwrap();
        let mut log = OpLog::new();
        let logged = sim.execute(run().recorder(&mut log)).unwrap();
        let mut replayed = Registry::new();
        log.replay(&mut replayed);

        let expect = json(&out.snapshot);
        assert_eq!(json(&reg.snapshot()), expect, "S={shards}: caller registry");
        assert_eq!(
            json(&replayed.snapshot()),
            expect,
            "S={shards}: OpLog replay"
        );
        assert_eq!(json(&logged.snapshot), expect, "S={shards}: logged run");

        // The busy series equal one `observe` per reception, in session
        // order: counts, buckets and float sums bit for bit.
        let mut per_reception = Registry::new();
        for t in &collect.traces {
            for rx in &t.receptions {
                per_reception.observe(
                    "sim_channel_busy_minutes",
                    &[("channel", &rx.channel.to_string())],
                    rx.duration.value(),
                );
            }
        }
        let busy = |s: &Snapshot| {
            serde_json::to_string(s.family("sim_channel_busy_minutes").unwrap()).unwrap()
        };
        assert_eq!(
            busy(&out.snapshot),
            busy(&per_reception.snapshot()),
            "S={shards}: busy histograms"
        );

        // One hand-over per touched channel, not one op per reception.
        let receptions: usize = collect.traces.iter().map(|t| t.receptions.len()).sum();
        let channels = out
            .snapshot
            .family("sim_channel_busy_minutes")
            .unwrap()
            .series
            .len();
        assert!(
            log.len() <= 3 * requests.len() + channels + 8 * shards,
            "S={shards}: {} ops for {} sessions, {channels} channels, {receptions} receptions",
            log.len(),
            requests.len()
        );
    }
}
