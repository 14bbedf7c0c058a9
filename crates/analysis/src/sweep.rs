//! The bandwidth sweep underlying Figures 5–8.
//!
//! §5.1: "we varied the network-I/O bandwidth from 100 Mbits/sec to 600
//! Mbits/sec" — PB/PPB don't work below ≈90 Mb/s, and 600 is "large enough
//! to show the trends". Each sweep row evaluates every scheme in the
//! lineup at one bandwidth; schemes that are infeasible there (α ≤ 1 etc.)
//! simply have no entry, exactly like a missing point on the paper's
//! curves.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::scheme::SchemeMetrics;
use sb_pyramid::{PermutationPyramid, PyramidBroadcasting};

use crate::lineup::SchemeId;
use crate::runner::{run_sweep, Experiment, Runner};

/// Resolved design parameters, where the scheme has them (Figure 5's
/// subject matter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignParams {
    /// Fragments / channels per video.
    pub k: usize,
    /// PPB's replication degree.
    pub p: Option<usize>,
    /// The pyramids' geometric factor.
    pub alpha: Option<f64>,
}

/// One (scheme, bandwidth) evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemePoint {
    /// The scheme.
    pub id: SchemeId,
    /// Table-1 metrics.
    pub metrics: SchemeMetrics,
    /// Table-2 parameters.
    pub params: DesignParams,
}

/// All feasible schemes evaluated at one server bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Server bandwidth `B`.
    pub bandwidth: Mbps,
    /// Per-scheme results (infeasible schemes absent).
    pub points: Vec<SchemePoint>,
}

impl SweepRow {
    /// The entry for one scheme, if feasible at this bandwidth.
    #[must_use]
    pub fn get(&self, id: SchemeId) -> Option<&SchemePoint> {
        self.points.iter().find(|p| p.id == id)
    }
}

/// Evaluate one scheme at one configuration.
#[must_use]
pub fn evaluate(id: SchemeId, cfg: &SystemConfig) -> Option<SchemePoint> {
    let scheme = id.build();
    let metrics = scheme.metrics(cfg).ok()?;
    let params = match id {
        SchemeId::Sb(_) => DesignParams {
            k: (cfg.channels_ratio().floor() as usize).min(sb_core::series::MAX_SEGMENTS),
            p: None,
            alpha: None,
        },
        SchemeId::PbA | SchemeId::PbB => {
            let v = if id == SchemeId::PbA {
                PyramidBroadcasting::a()
            } else {
                PyramidBroadcasting::b()
            };
            let p = v.params(cfg).ok()?;
            DesignParams {
                k: p.k,
                p: None,
                alpha: Some(p.alpha),
            }
        }
        SchemeId::PpbA | SchemeId::PpbB => {
            let v = if id == SchemeId::PpbA {
                PermutationPyramid::a()
            } else {
                PermutationPyramid::b()
            };
            let p = v.params(cfg).ok()?;
            DesignParams {
                k: p.k,
                p: Some(p.p),
                alpha: Some(p.alpha),
            }
        }
        SchemeId::Staggered => DesignParams {
            k: cfg.channels_ratio().floor() as usize,
            p: None,
            alpha: None,
        },
        SchemeId::Fast => DesignParams {
            k: sb_pyramid::FastBroadcasting.channels_per_video(cfg).ok()?,
            p: None,
            alpha: None,
        },
        SchemeId::Harmonic => DesignParams {
            k: sb_pyramid::HarmonicBroadcasting::delayed()
                .slots(cfg)
                .ok()?,
            p: None,
            alpha: None,
        },
        SchemeId::Ctifb => DesignParams {
            k: sb_pyramid::Ctifb.channels_per_video(cfg).ok()?,
            p: None,
            alpha: None,
        },
        SchemeId::Aqhb => {
            // K = slots; P doubles as the subslot granularity m.
            let p = sb_pyramid::AdaptiveQuasiHarmonic.params(cfg).ok()?;
            DesignParams {
                k: p.n,
                p: Some(p.m),
                alpha: None,
            }
        }
    };
    Some(SchemePoint {
        id,
        metrics,
        params,
    })
}

/// Sweep the lineup across `[from, to]` in steps of `step` Mb/s, with the
/// paper's M/D/b defaults, on `runner` — bandwidths evaluated in
/// parallel, output identical to the serial path.
///
/// # Panics
/// Panics on a degenerate range or step.
#[must_use]
pub fn sweep_bandwidth_with(
    ids: &[SchemeId],
    from: f64,
    to: f64,
    step: f64,
    runner: &Runner,
) -> Vec<SweepRow> {
    let exp = Experiment::over_range("sweep", ids.to_vec(), from, to, step);
    run_sweep(&exp, runner)
}

/// The paper's sweep: 100–600 Mb/s in 20 Mb/s steps, on `runner`.
#[must_use]
pub fn paper_sweep_with(ids: &[SchemeId], runner: &Runner) -> Vec<SweepRow> {
    sweep_bandwidth_with(ids, 100.0, 600.0, 20.0, runner)
}

/// Find the smallest swept bandwidth at which `id` reaches an access
/// latency at or below `target` — the "where do curves cross a threshold"
/// readings §5.3 makes.
#[must_use]
pub fn latency_crossover(rows: &[SweepRow], id: SchemeId, target: Minutes) -> Option<Mbps> {
    rows.iter()
        .find(|r| {
            r.get(id)
                .is_some_and(|p| p.metrics.access_latency <= target)
        })
        .map(|r| r.bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineup::{extended_lineup, paper_lineup};

    #[test]
    fn sweep_covers_the_paper_range() {
        let rows = paper_sweep_with(&paper_lineup(), &Runner::serial());
        assert_eq!(rows.len(), 26); // 100, 120, …, 600
        assert!(rows[0].bandwidth.approx_eq(Mbps(100.0), 1e-9));
        assert!(rows[25].bandwidth.approx_eq(Mbps(600.0), 1e-9));
    }

    #[test]
    fn all_schemes_feasible_at_large_b() {
        let rows = paper_sweep_with(&extended_lineup(), &Runner::serial());
        let last = rows.last().unwrap();
        assert_eq!(last.points.len(), 10, "all 10 schemes at 600 Mb/s");
    }

    #[test]
    fn sb_feasible_across_entire_range() {
        let rows = paper_sweep_with(&paper_lineup(), &Runner::serial());
        for r in &rows {
            for w in crate::lineup::PAPER_WIDTHS {
                assert!(
                    r.get(SchemeId::Sb(Some(w))).is_some(),
                    "SB W={w} missing at {}",
                    r.bandwidth
                );
            }
        }
    }

    #[test]
    fn figure7_ppb_crossover_at_300() {
        // §5.3's reading of Figure 7: PPB needs ≥ 300 Mb/s for 0.5 min.
        let rows = paper_sweep_with(&paper_lineup(), &Runner::serial());
        let cross = latency_crossover(&rows, SchemeId::PpbA, Minutes(0.5)).unwrap();
        assert!(
            (cross.value() - 300.0).abs() <= 20.0,
            "PPB:a crosses 0.5 min at {cross}"
        );
        // PB crosses far earlier…
        let pb = latency_crossover(&rows, SchemeId::PbA, Minutes(0.5)).unwrap();
        assert!(pb.value() <= 240.0, "PB:a crosses at {pb}");
        // …and so does SB with a large width.
        let sb = latency_crossover(&rows, SchemeId::Sb(Some(1705)), Minutes(0.5)).unwrap();
        assert!(sb.value() <= 220.0, "SB W=1705 crosses at {sb}");
    }

    #[test]
    fn pb_k_grows_unbounded_ppb_k_capped() {
        // §2: "PPB … the access latency and storage requirement will
        // eventually improve only linearly as B increases. As a comparison,
        // the original PB scheme does not constrain the value of K."
        let rows = sweep_bandwidth_with(&paper_lineup(), 600.0, 3000.0, 300.0, &Runner::serial());
        let last = rows.last().unwrap();
        assert!(last.get(SchemeId::PbA).unwrap().params.k > 60);
        assert_eq!(last.get(SchemeId::PpbA).unwrap().params.k, 7);
    }

    #[test]
    fn params_match_table2_spot_checks() {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        let ppb_b = evaluate(SchemeId::PpbB, &cfg).unwrap();
        assert_eq!(ppb_b.params.k, 7);
        assert_eq!(ppb_b.params.p, Some(2));
        assert!((ppb_b.params.alpha.unwrap() - 1.0476).abs() < 0.01);
        let sb = evaluate(SchemeId::Sb(Some(52)), &cfg).unwrap();
        assert_eq!(sb.params.k, 21);
    }
}
