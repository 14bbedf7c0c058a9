//! # Deterministic metrics for the simulator workspace
//!
//! An observability layer with one hard constraint inherited from the
//! experiment runner: **identical inputs must produce identical bytes**,
//! whatever the worker-pool size. Consequently this crate has none of the
//! usual metrics machinery — no clocks, no atomics, no sampling. A
//! [`Registry`] is a plain value owned by whoever is simulating; parallel
//! work shards record into private registries whose [`Snapshot`]s are
//! merged *in item-index order* by the caller, exactly like the runner
//! reassembles its results.
//!
//! Three instrument kinds, all keyed by `(family name, label set)`:
//!
//! * **counters** — monotone `u64` event counts (sessions, defections);
//! * **gauges** — high-water marks, merged by `max` (peak active
//!   sessions, peak busy channels);
//! * **histograms** — fixed, pre-declared bucket bounds plus exact
//!   `count`/`sum`, so merging is bucket-wise addition and the mean is
//!   exact (latency, waits, buffer occupancy).
//!
//! Families and series are stored in `BTreeMap`s: iteration (and thus
//! serialization) order is the sorted label order, never insertion order.
//! The [`Recorder`] trait is the write-side seam threaded through the
//! simulators; [`NullRecorder`] makes instrumentation free on the
//! un-instrumented paths.

#![forbid(unsafe_code)]

pub mod recorder;
pub mod registry;

pub use recorder::{IdLabels, NullRecorder, OpLog, Recorder, TeeRecorder};
pub use registry::{
    FamilySnapshot, HistogramValue, MetricKind, MetricValue, Registry, SeriesSnapshot, Snapshot,
    DEFAULT_BUCKETS,
};
