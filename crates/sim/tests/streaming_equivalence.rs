//! Streaming-vs-materializing equivalence across every client model.
//!
//! The contract the `sink` module promises, pinned end to end: for the
//! same plan, arrivals and seeds, a [`StreamingFold`] (which drops every
//! trace on acceptance) and a [`CollectTraces`] (which retains them all)
//! produce **bitwise-identical** summary statistics — same struct, same
//! serialized bytes — and neither perturbs the [`SystemSim`] report.
//! Holding for all three client models (the tune-at-start policies, the
//! PPB pausing client, the Harmonic recording client) is what lets
//! experiments switch to the streaming path wholesale without changing a
//! published number.

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient};
use sb_sim::{apply_losses, CollectTraces, LossModel, RunConfig, StreamingFold, TraceSink};
use vod_units::{Mbps, Minutes};

fn requests(n: usize, videos: usize, span: f64) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            at: Minutes(span * (i as f64 + 0.41) / n as f64),
            video: VideoId(i % videos),
        })
        .collect()
}

/// Each model against the plan its scheme prescribes.
fn lineup() -> Vec<(&'static str, ChannelPlan, Box<dyn ClientModel>)> {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    vec![
        (
            "latest-feasible on SB:W=52",
            Skyscraper::with_width(Width::Capped(52))
                .plan(&cfg)
                .unwrap(),
            Box::new(ClientPolicy::LatestFeasible),
        ),
        (
            "pausing on PPB:b",
            PermutationPyramid::b().plan(&cfg).unwrap(),
            Box::new(PausingClient),
        ),
        (
            "recording on HB",
            HarmonicBroadcasting::delayed().plan(&cfg).unwrap(),
            Box::new(RecordingClient::default()),
        ),
    ]
}

#[test]
fn every_client_model_folds_bitwise_equal_to_materializing() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let reqs = requests(48, 3, 60.0);
    for (name, plan, model) in lineup() {
        let mut fold = StreamingFold::new();
        let folded = SystemSim::new(&plan, cfg.display_rate, model.as_ref())
            .execute(RunConfig::new(&reqs).sink(&mut fold))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .summary;
        let mut collect = CollectTraces::new();
        let collected = SystemSim::new(&plan, cfg.display_rate, model.as_ref())
            .execute(RunConfig::new(&reqs).sink(&mut collect))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .summary;

        // Sinks observe, they never steer: the reports agree.
        assert_eq!(folded, collected, "{name}: sink changed the report");
        assert_eq!(collect.traces.len(), reqs.len(), "{name}");

        // The two paths' summaries are the same bytes.
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(a, b, "{name}: summaries diverge");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{name}: serialized summaries diverge"
        );

        // And they agree with the report where the fields overlap.
        assert_eq!(a.sessions, folded.sessions, "{name}");
        assert_eq!(a.mean_latency, folded.mean_latency, "{name}");
        assert_eq!(a.p95_latency, folded.p95_latency, "{name}");
        assert_eq!(a.worst_buffer, folded.worst_buffer, "{name}");
        assert_eq!(a.delivered_minutes, folded.delivered_minutes, "{name}");
    }
}

/// The outcome's own fold is fed session scalars, not traces; it must
/// still equal the materialized summary of the traces the caller's sink
/// received, and that sink must still see every session in arrival
/// order, at one shard and at four.
#[test]
fn outcome_fold_equals_the_materialized_summary_at_every_shard_count() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let reqs = requests(48, 3, 60.0);
    for (name, plan, model) in lineup() {
        for shards in [1, 4] {
            let mut collect = CollectTraces::new();
            let out = SystemSim::new(&plan, cfg.display_rate, model.as_ref())
                .execute(
                    RunConfig::new(&reqs)
                        .sink(&mut collect)
                        .shards(shards)
                        .threads(2),
                )
                .unwrap_or_else(|e| panic!("{name} S={shards}: {e}"));
            assert_eq!(
                serde_json::to_string(&out.fold).unwrap(),
                serde_json::to_string(&collect.summarize()).unwrap(),
                "{name} S={shards}: outcome fold differs from the collected traces"
            );
            // `requests` arrive strictly in slice order.
            assert_eq!(collect.traces.len(), reqs.len(), "{name} S={shards}");
            for (t, r) in collect.traces.iter().zip(&reqs) {
                assert_eq!(t.arrival, r.at, "{name} S={shards}: out of arrival order");
            }
        }
    }
}

#[test]
fn stall_accounting_is_equivalent_across_models() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    for (name, plan, model) in lineup() {
        let losses = LossModel::new(0.15, 29).unwrap();
        let mut fold = StreamingFold::new();
        let mut collect = CollectTraces::new();
        for i in 0..24 {
            let arrival = Minutes(40.0 * (i as f64 + 0.17) / 24.0);
            let trace = model
                .session(&plan, VideoId(0), arrival, cfg.display_rate)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // The same seeded loss process replayed twice: both sinks see
            // identical stall reports, in identical order.
            let report = apply_losses(&plan, &trace, &losses);
            fold.accept_stalls(&report);
            collect.accept_stalls(&report);
        }
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(a, b, "{name}: stall summaries diverge");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{name}: serialized stall summaries diverge"
        );
        assert_eq!(a.sessions, 24, "{name}");
        assert!(
            a.stalls > 0,
            "{name}: 15% loss must stall at least one session"
        );
    }
}
