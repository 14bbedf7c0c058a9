//! The benchmark's own tests: every workload passes its checks at smoke
//! size, the traced decomposition reproduces `execute` bit for bit, and
//! the metric names printed match the declarations.

use std::collections::BTreeSet;
use std::path::Path;

use sb_perfbench::layers::{decompose, same_counts};
use sb_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use sb_perfbench::tracing::Tracer;
use sb_perfbench::workloads::{setup, Scale, Workload};
use sb_perfbench::{parse_args, run, Args};
use serde_json::Value;

fn json(path: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    field(v, key)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let unit = m
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "unit"))
                .map_or("", |(_, u)| u.as_str().expect("a unit"));
            (
                field(m, "name").as_str().expect("a name").to_string(),
                unit.to_string(),
            )
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let args = Args {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
    };
    run(&args, Scale::Smoke)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
        .0
}

fn declared_workloads() -> Vec<Workload> {
    names(&json("../BENCHMARK.json"), "workloads")
        .into_iter()
        .map(|(n, _)| Workload::parse(&n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect()
}

fn printed(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn passes_end_to_end(w: Workload) {
    let out = smoke(w, false);
    assert!(out.correct, "{}: {:?}", w.name(), out.failures);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    assert_eq!(printed(&out), catalogue(&END_TO_END), "{}", w.name());
    for m in &out.metrics {
        assert!(m.value.is_finite() && m.value >= 0.0, "{}: {m:?}", w.name());
    }
    assert!(out
        .json()
        .starts_with("{\"correct\": true, \"attempted\": "));
}

fn passes_traced(w: Workload) {
    let out = smoke(w, true);
    assert!(out.correct, "{}: {:?}", w.name(), out.failures);
    assert_eq!(printed(&out), catalogue(&PER_LAYER), "{}", w.name());
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn declared_workloads_pass_their_checks_at_smoke_size() {
    for w in declared_workloads() {
        passes_end_to_end(w);
        passes_traced(w);
    }
}

/// Fails on the program as it stands: with PB:b every channel carries
/// every title, so `sim_channel_busy_minutes{channel=…}` spans shards and
/// the sharded snapshot's histogram sums differ in their last bits from a
/// serial `execute`. This is why `metro-sharded` is not declared in
/// `BENCHMARK.json`; it passes once the shard merge keeps those bytes.
#[test]
fn metro_sharded_passes_its_checks_at_smoke_size() {
    passes_end_to_end(Workload::MetroSharded);
    passes_traced(Workload::MetroSharded);
}

#[test]
fn the_decomposition_reproduces_executes_fold_bit_for_bit() {
    for w in [
        Workload::SbGrid,
        Workload::HbReceiveAll,
        Workload::MetroSharded,
    ] {
        let s = setup(w, 5, Scale::Smoke, &mut Tracer::off()).unwrap();
        for cell in &s.sim {
            let out = cell.execute().unwrap();
            let mut tr = Tracer::new(7);
            let d = decompose(cell, &mut tr, None).unwrap();
            assert_eq!(
                d.fold,
                serde_json::to_string(&out.fold).unwrap(),
                "{}",
                cell.label
            );
            assert!(same_counts(&d.heap, &out.stats) && same_counts(&d.wheel, &out.stats));
            assert_eq!(tr.busy("client").count, cell.requests.len() as u64);
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for w in Workload::ALL {
        let a = setup(w, 11, Scale::Smoke, &mut Tracer::off()).unwrap();
        let b = setup(w, 11, Scale::Smoke, &mut Tracer::off()).unwrap();
        for (x, y) in a.sim.iter().zip(&b.sim) {
            assert_eq!(x.requests, y.requests);
        }
        if let (Some(x), Some(y)) = (&a.control, &b.control) {
            assert_eq!(x.requests, y.requests);
        }
        // The grid's seed only picks the title phase, so look at a few.
        let streams: BTreeSet<String> = (20..24)
            .map(|seed| {
                let s = setup(w, seed, Scale::Smoke, &mut Tracer::off()).unwrap();
                format!(
                    "{:?}{:?}",
                    s.sim.first().map(|c| &c.requests),
                    s.control.as_ref().map(|c| &c.requests)
                )
            })
            .collect();
        assert!(
            streams.len() > 1,
            "{}: the seed reaches the inputs",
            w.name()
        );
    }
}

#[test]
fn declared_metric_names_match_the_printed_ones() {
    let bench = json("../BENCHMARK.json");
    let decl = json("declarations.json");
    assert_eq!(names(&bench, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names(&bench, "per_layer"), catalogue(&PER_LAYER));
    assert_eq!(names(&decl, "per_layer"), catalogue(&PER_LAYER));
    let valid = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut seen = BTreeSet::new();
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid(name), "{name}");
        assert!(seen.insert(*name), "{name} declared twice");
    }
    for w in declared_workloads() {
        assert!(valid(w.name()));
    }
    // Every workload an expected effect names exists.
    for layer in field(&decl, "per_layer").as_array().unwrap() {
        for m in field(layer, "moves").as_array().unwrap() {
            let w = field(m, "workload").as_str().unwrap();
            assert!(w == "all" || Workload::parse(w).is_some(), "{w}");
            let metric = field(m, "metric").as_str().unwrap();
            assert!(END_TO_END.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }
}

#[test]
fn the_command_line_is_strict() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(argv("--workload sb-grid --seed 4 --seconds 2 --trace 1")).unwrap();
    assert_eq!(
        ok,
        Args {
            workload: Workload::SbGrid,
            seed: 4,
            seconds: 2.0,
            trace: true
        }
    );
    for bad in [
        "--workload sb-grid --seed 4 --seconds 2",
        "--workload nope --seed 4 --seconds 2 --trace 0",
        "--workload sb-grid --seed -4 --seconds 2 --trace 0",
        "--workload sb-grid --seed 4 --seconds 0 --trace 0",
        "--workload sb-grid --seed 4 --seconds 2 --trace 2",
        "--workload sb-grid --seed 4 --seconds 2 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse_args(argv(bad)).is_err(), "{bad}");
    }
}
