//! The untraced run: set up, warm up, then timed passes through the
//! public entry points for `--seconds`, checking every outcome.

use std::time::{Duration, Instant};

use skyscraper_broadcasting::sim::RunConfig;

use crate::checks;
use crate::report::{Metric, Outcome};
use crate::tracing::Tracer;
use crate::workloads::{self, timed, Scale, Setup, Workload};

/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 9;
/// Host seconds of set-ups per run at least, so a set-up of a
/// millisecond is still sampled a few hundred times.
const SETUP_SECONDS: f64 = 0.5;
/// Timed passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

/// One pass over every cell of a setup.
struct Pass {
    /// Host seconds inside `execute` calls.
    seconds: f64,
    /// Check failures.
    failures: Vec<String>,
    /// Digest of each cell's deterministic output, in cell order.
    digests: Vec<u64>,
}

/// Run every cell once through its public entry point and check it.
#[must_use]
fn pass(setup: &Setup) -> Pass {
    let mut p = Pass {
        seconds: 0.0,
        failures: Vec::new(),
        digests: Vec::new(),
    };
    for cell in &setup.sim {
        let (out, secs) = timed(|| cell.execute());
        p.seconds += secs;
        match out {
            Ok(out) => {
                p.failures.extend(checks::sim(cell, &out));
                p.digests
                    .push(checks::digest(checks::sim_bytes(&out).as_bytes()));
            }
            Err(e) => p.failures.push(format!("{}: {e}", cell.label)),
        }
    }
    if let Some(run) = &setup.control {
        for &policy in &run.policies {
            let (out, secs) = timed(|| run.execute(policy));
            p.seconds += secs;
            match out {
                Ok(out) => {
                    p.failures.extend(checks::control(run, &out));
                    p.digests
                        .push(checks::digest(checks::control_bytes(&out).as_bytes()));
                }
                Err(e) => p.failures.push(format!("control {policy}: {e}")),
            }
        }
    }
    p
}

/// Peak resident set so far, kB: `VmHWM` from `/proc/self/status`,
/// zero where the file is missing.
#[must_use]
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Median of a non-empty sample.
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set up at least `MIN_SETUPS` times and for at least `SETUP_SECONDS`
/// (keeping the last), returning the setup and each set-up's host
/// seconds.
///
/// # Errors
/// A set-up error, as text.
pub(crate) fn set_up(
    workload: Workload,
    seed: u64,
    scale: Scale,
    tr: &mut Tracer,
) -> Result<(Setup, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(kept.take());
        let (setup, secs) = timed(|| workloads::setup(workload, seed, scale, tr));
        kept = Some(setup?);
        times.push(secs);
    }
    Ok((kept.expect("MIN_SETUPS > 0"), times))
}

/// The end-to-end run.
///
/// # Errors
/// A set-up error, as text; simulation errors count as failures.
pub(crate) fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let (setup, setup_times) = set_up(workload, seed, scale, &mut Tracer::off())?;
    let offered = setup.offered();
    let hwm_setup = peak_rss_kb();

    // One untimed warm-up pass; its outputs are the reference every
    // timed pass must reproduce byte for byte.
    let warm = pass(&setup);
    let mut failures = warm.failures;
    let reference = warm.digests;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rates = Vec::new();
    let mut hwm_by_pass = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while rates.len() < MIN_PASSES || started.elapsed() < budget {
        let mut p = pass(&setup);
        if p.digests != reference {
            p.failures
                .push("a pass produced different bytes than the warm-up pass".into());
        }
        attempted += offered as u64;
        if !p.failures.is_empty() {
            failed += offered as u64;
            failures.append(&mut p.failures);
        }
        rates.push(offered as f64 / p.seconds);
        hwm_by_pass.push(peak_rss_kb());
    }
    let hwm_passes = peak_rss_kb();

    // Once per invocation, outside the timed passes: a sharded run must
    // produce the bytes of a serial `execute` of the same stream.
    for (cell, &sharded) in setup.sim.iter().zip(&reference) {
        if cell.shards > 1 {
            let serial = cell.sim().execute(RunConfig::new(&cell.requests));
            let bad = match serial {
                Ok(out) if checks::digest(checks::sim_bytes(&out).as_bytes()) == sharded => None,
                Ok(_) => Some(format!(
                    "{}: sharded summary, fold or snapshot bytes differ from a serial execute",
                    cell.label
                )),
                Err(e) => Some(format!("{} serial: {e}", cell.label)),
            };
            attempted += cell.requests.len() as u64;
            if let Some(bad) = bad {
                failed += cell.requests.len() as u64;
                failures.push(bad);
            }
        }
    }

    let growth_bytes = hwm_passes.saturating_sub(hwm_setup) as f64 * 1024.0;
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        failures,
        metrics: vec![
            Metric::new("requests_per_s", median(&rates)),
            Metric::new("setup_s", median(&setup_times)),
            Metric::new("peak_rss_mb", hwm_passes as f64 / 1024.0),
            Metric::new("rss_bytes_per_request", growth_bytes / offered as f64),
        ],
        context: vec![
            format!("sizes: {}", workloads::describe(&setup)),
            format!(
                "requests_per_s by pass: {}",
                rates
                    .iter()
                    .map(|r| format!("{r:.0}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "VmHWM kB by pass: {}",
                hwm_by_pass
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "setup_s over {} set-ups: min {:.6} median {:.6} max {:.6}",
                setup_times.len(),
                setup_times.iter().copied().fold(f64::INFINITY, f64::min),
                median(&setup_times),
                setup_times.iter().copied().fold(0.0, f64::max),
            ),
            format!(
                "passes: {} timed after 1 warm-up, {offered} requests each; \
                 digests: {}",
                rates.len(),
                reference
                    .iter()
                    .map(|d| format!("{d:016x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ],
    })
}
