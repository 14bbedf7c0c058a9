//! Criterion benches for the continuous-time client scheduler and the
//! discrete-event engine.

#![allow(missing_docs)] // criterion_group! generates undocumented items

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::PyramidBroadcasting;
use sb_sim::engine::Engine;
use sb_sim::policy::{schedule_client, ClientPolicy};
use sb_sim::AgendaKind;
use vod_units::{Mbps, Minutes, TickDuration, Ticks};

fn bench_schedule_client(c: &mut Criterion) {
    let cfg = SystemConfig::paper_defaults(Mbps(300.0));
    let sb_plan = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let pb_plan = PyramidBroadcasting::a().plan(&cfg).unwrap();
    let mut g = c.benchmark_group("schedule_client");
    g.bench_function(BenchmarkId::new("sb_latest_feasible", 300), |b| {
        b.iter(|| {
            schedule_client(
                black_box(&sb_plan),
                VideoId(3),
                Minutes(7.31),
                cfg.display_rate,
                ClientPolicy::LatestFeasible,
            )
            .unwrap()
        })
    });
    g.bench_function(BenchmarkId::new("pb_earliest", 300), |b| {
        b.iter(|| {
            schedule_client(
                black_box(&pb_plan),
                VideoId(3),
                Minutes(7.31),
                cfg.display_rate,
                ClientPolicy::PbEarliest,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_buffer_profile(c: &mut Criterion) {
    let cfg = SystemConfig::paper_defaults(Mbps(600.0));
    let plan = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let sched = schedule_client(
        &plan,
        VideoId(0),
        Minutes(3.7),
        cfg.display_rate,
        ClientPolicy::LatestFeasible,
    )
    .unwrap();
    c.bench_function("buffer_profile_K40", |b| {
        b.iter(|| black_box(&sched).peak_buffer())
    });
}

/// The engine's two event stores side by side: the same 100k-event
/// self-scheduling cascade on each backend. Fire order (and
/// so `fired`) is bitwise identical; only the per-operation cost of the
/// event store differs.
fn bench_engine_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_100k_events");
    for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
        g.bench_function(BenchmarkId::new(kind.name(), 100_000), |b| {
            b.iter(|| {
                let mut eng: Engine<u64> = Engine::with_agenda(kind);
                for i in 0..1_000u64 {
                    eng.schedule_at(Ticks(i * 7 % 991), i);
                }
                let mut fired = 0u64;
                eng.run(|eng, _, n| {
                    fired += 1;
                    if n < 99_000 {
                        eng.schedule_in(TickDuration(3), n + 1_000);
                    }
                });
                black_box(fired)
            })
        });
    }
    g.finish();
}

/// Cancel-heavy churn with far-future deadlines — the workload the
/// session sim's watchdog timers produce, and the one where backend
/// push/cancel cost dominates. Exercises the wheel's overflow level
/// (deadlines land beyond the wheel span from the cursor).
fn bench_agenda_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("agenda_churn_20k_cancels");
    for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
        g.bench_function(BenchmarkId::new(kind.name(), 20_000), |b| {
            b.iter(|| {
                let mut eng: Engine<u64> = Engine::with_agenda(kind);
                let far = 1u64 << 40;
                let mut ring: std::collections::VecDeque<_> = (0..128u64)
                    .map(|i| eng.schedule_at(Ticks(far + i), i))
                    .collect();
                for i in 0..20_000u64 {
                    if let Some(id) = ring.pop_front() {
                        eng.cancel(id);
                    }
                    ring.push_back(eng.schedule_at(Ticks(far + 128 + i), i));
                }
                let mut fired = 0u64;
                eng.run(|_, _, _| fired += 1);
                black_box(fired)
            })
        });
    }
    g.finish();
}

fn bench_pausing_client(c: &mut Criterion) {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let plan = sb_pyramid::PermutationPyramid::b().plan(&cfg).unwrap();
    c.bench_function("ppb_pausing_client", |b| {
        b.iter(|| {
            sb_sim::pausing::schedule_pausing_client(
                black_box(&plan),
                VideoId(0),
                Minutes(3.7),
                cfg.display_rate,
            )
            .unwrap()
        })
    });
}

fn bench_packet_replay(c: &mut Criterion) {
    let cfg = SystemConfig::paper_defaults(Mbps(300.0));
    let plan = Skyscraper::with_width(Width::Capped(12))
        .plan(&cfg)
        .unwrap();
    let sched = schedule_client(
        &plan,
        VideoId(0),
        Minutes(5.2),
        cfg.display_rate,
        ClientPolicy::LatestFeasible,
    )
    .unwrap()
    .trace();
    c.bench_function("packet_replay_2h_session", |b| {
        b.iter(|| sb_sim::e2e::replay(black_box(&sched), sb_sim::e2e::PacketConfig::default()))
    });
}

criterion_group!(
    benches,
    bench_schedule_client,
    bench_buffer_profile,
    bench_engine_throughput,
    bench_agenda_churn,
    bench_pausing_client,
    bench_packet_replay
);
criterion_main!(benches);
