//! Property test for the metropolitan scenario pack: the scenario slot
//! is invisible in the results.
//!
//! For random presets, seeds, rates and premiere times, a scenario
//! request stream (clustered geography, region-local catalogs, diurnal
//! shape, a flash crowd in the busiest region) run through `SystemSim`
//! with the region→shard partition table must be *bitwise* identical
//! across the full grid `--shards {1, 2, 4} × --threads {1, 2, 4}`:
//! same report, same streamed fold (struct and
//! serialized bytes), same merged metrics snapshot. This extends the
//! `sim::shard` ordered-replay argument (`DESIGN.md` §11) to the
//! partition slot of §13 over the whole scenario input space, not just
//! the fixtures in `analysis::scenario_study`.

use proptest::prelude::*;
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::{RunConfig, StreamingFold};
use sb_workload::{FlashCrowd, MetroScenario, ScenarioPreset, ScenarioWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn scenario_streams_are_invariant_across_the_whole_knob_grid(
        seed in any::<u64>(),
        preset_idx in 0usize..3,
        rate in 0.5f64..2.0,
        flash_frac in 0.2f64..0.8,
    ) {
        let preset =
            [ScenarioPreset::Urban, ScenarioPreset::Rural, ScenarioPreset::Remote][preset_idx];
        let scenario = MetroScenario::generate(&preset.config(seed));
        let horizon = Minutes(90.0);
        let busiest = scenario
            .regions
            .iter()
            .max_by(|a, b| a.demand_share.total_cmp(&b.demand_share))
            .map(|r| r.id)
            .unwrap();
        let stream = ScenarioWorkload {
            rate_per_minute: rate,
            horizon,
            mean_patience: Minutes(30.0),
            diurnal: true,
            flash: Some(FlashCrowd {
                at: Minutes(horizon.value() * flash_frac),
                region: busiest,
            }),
            seed: seed.rotate_left(17),
        }
        .generate(&scenario);
        let requests: Vec<Request> = stream
            .iter()
            .map(|r| Request { at: r.at, video: VideoId(r.video) })
            .collect();
        prop_assume!(!requests.is_empty());

        let titles = scenario.titles();
        let sys = SystemConfig {
            num_videos: titles,
            ..SystemConfig::paper_defaults(Mbps(30.0 * titles as f64))
        };
        let plan = Skyscraper::with_width(Width::Capped(52)).plan(&sys).unwrap();

        let mut base_fold = StreamingFold::new();
        let base = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible)
            .execute(RunConfig::new(&requests).sink(&mut base_fold).seed(seed))
            .unwrap();
        let base_bytes = serde_json::to_string(&base_fold.finish()).unwrap();

        for shards in [1usize, 2, 4] {
            let map = scenario.shard_map(shards);
            for threads in [1usize, 2, 4] {
                let mut fold = StreamingFold::new();
                let run = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible)
                    .execute(
                        RunConfig::new(&requests)
                            .sink(&mut fold)
                            .partition(&map)
                            .shards(shards)
                            .threads(threads)
                            .seed(seed),
                    )
                    .unwrap();
                let knobs = format!("shards {shards} × threads {threads}");
                prop_assert_eq!(&base.summary, &run.summary, "report diverged at {}", &knobs);
                prop_assert_eq!(&base.fold, &run.fold, "fold diverged at {}", &knobs);
                prop_assert_eq!(
                    &base.snapshot, &run.snapshot,
                    "snapshot diverged at {}", &knobs
                );
                prop_assert_eq!(
                    &base_bytes,
                    &serde_json::to_string(&fold.finish()).unwrap(),
                    "caller fold bytes diverged at {}", &knobs
                );
                prop_assert_eq!(base.stats.fired, run.stats.fired, "{}", &knobs);
                prop_assert_eq!(
                    run.shard_peak_agenda.len(), shards,
                    "{}", &knobs
                );
            }
        }
    }
}
