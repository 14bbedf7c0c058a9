//! Output checks. Each returns the failures it found as text; an empty
//! list means the outcome is correct. A pass whose outcome fails any
//! check counts every request of that pass as failed.

use skyscraper_broadcasting::control::ControlOutcome;
use skyscraper_broadcasting::sim::RunOutcome;

use crate::workloads::{ControlRun, SimCell};

/// Relative slack on the closed-form buffer bound and absolute slack on
/// the latency bound, minutes: the tolerances the repository's own
/// tests allow for float rounding.
const BUFFER_SLACK: f64 = 1e-6;
const LATENCY_SLACK: f64 = 1e-6;

/// Every request served, and the fold inside the scheme's closed-form
/// `SchemeMetrics`: worst buffer, worst latency, and concurrent
/// receptions (SB: at most its two loaders).
#[must_use]
pub(crate) fn sim(cell: &SimCell, out: &RunOutcome) -> Vec<String> {
    let mut bad = Vec::new();
    let offered = cell.requests.len();
    if out.summary.sessions != offered || out.fold.sessions != offered {
        bad.push(format!(
            "{}: served {} (fold {}) of {offered} requests",
            cell.label, out.summary.sessions, out.fold.sessions
        ));
    }
    let buffer = cell.bounds.buffer_requirement.value();
    if out.fold.worst_buffer.value() > buffer * (1.0 + BUFFER_SLACK) {
        bad.push(format!(
            "{}: worst buffer {} Mb over the closed-form {buffer} Mb",
            cell.label,
            out.fold.worst_buffer.value()
        ));
    }
    let latency = cell.bounds.access_latency.value();
    if out.fold.worst_latency.value() > latency + LATENCY_SLACK {
        bad.push(format!(
            "{}: worst latency {} min over the closed-form {latency} min",
            cell.label,
            out.fold.worst_latency.value()
        ));
    }
    if out.fold.max_streams > cell.max_streams {
        bad.push(format!(
            "{}: {} concurrent receptions, bound {}",
            cell.label, out.fold.max_streams, cell.max_streams
        ));
    }
    bad
}

/// Every offered request ends served, defected or rejected.
#[must_use]
pub(crate) fn control(run: &ControlRun, out: &ControlOutcome) -> Vec<String> {
    let r = &out.summary;
    let mut bad = Vec::new();
    if r.requests != run.requests.len() {
        bad.push(format!(
            "control {}: report counts {} of {} offered requests",
            r.policy,
            r.requests,
            run.requests.len()
        ));
    }
    if r.served_broadcast + r.served_pool + r.defected + r.rejected != r.requests {
        bad.push(format!(
            "control {}: served {} + {} + defected {} + rejected {} != {} requests",
            r.policy, r.served_broadcast, r.served_pool, r.defected, r.rejected, r.requests
        ));
    }
    bad
}

/// The deterministic bytes of a `SystemSim` outcome: summary, fold and
/// metrics snapshot as JSON (engine statistics vary with the shard count
/// by design and are left out).
#[must_use]
pub(crate) fn sim_bytes(out: &RunOutcome) -> String {
    [
        serde_json::to_string(&out.summary),
        serde_json::to_string(&out.fold),
        serde_json::to_string(&out.snapshot),
    ]
    .into_iter()
    .map(|s| s.expect("outcomes serialize"))
    .collect::<Vec<_>>()
    .join("\n")
}

/// The deterministic bytes of a control-plane outcome: report and
/// metrics snapshot as JSON.
#[must_use]
pub(crate) fn control_bytes(out: &ControlOutcome) -> String {
    [
        serde_json::to_string(&out.summary),
        serde_json::to_string(&out.snapshot),
    ]
    .into_iter()
    .map(|s| s.expect("outcomes serialize"))
    .collect::<Vec<_>>()
    .join("\n")
}

/// FNV-1a, 64 bits: a short digest of an outcome's bytes.
#[must_use]
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
