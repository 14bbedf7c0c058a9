//! The write-side seam the simulators record through.
//!
//! Simulation code takes `&mut dyn Recorder` so the same run can be
//! driven bare (a [`NullRecorder`], zero cost, the historical output
//! paths) or instrumented (a [`crate::Registry`] that snapshots into the
//! run's report). Keeping the trait object at the call boundary — rather
//! than a generic — keeps every downstream signature monomorphic and the
//! public APIs unchanged.

use crate::registry::{HistogramValue, Registry};

/// A sink for simulation events.
pub trait Recorder {
    /// Add `by` to the counter `name{labels}`.
    fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64);
    /// Raise the gauge `name{labels}` to `v` if higher.
    fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64);
    /// Record `v` into the histogram `name{labels}`.
    fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64);
    /// Hand over a histogram accumulated elsewhere as the series
    /// `name{labels}`: a store inserts it when the series is absent and
    /// merges it bucket-wise when present. A hot loop that observes one
    /// series many times keeps its own [`HistogramValue`] and records
    /// it once; into an absent series that is bit for bit the same as
    /// the individual [`Recorder::observe`] calls. No default body: a
    /// wrapper that relabels or forwards must say what it does here.
    fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramValue);
}

impl Recorder for Registry {
    fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        Registry::incr(self, name, labels, by);
    }
    fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        Registry::gauge_max(self, name, labels, v);
    }
    fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        Registry::observe(self, name, labels, v);
    }
    fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramValue) {
        Registry::merge_histogram(self, name, labels, h);
    }
}

/// Discards everything — the un-instrumented paths' recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn incr(&mut self, _name: &str, _labels: &[(&str, &str)], _by: u64) {}
    fn gauge_max(&mut self, _name: &str, _labels: &[(&str, &str)], _v: f64) {}
    fn observe(&mut self, _name: &str, _labels: &[(&str, &str)], _v: f64) {}
    fn merge_histogram(&mut self, _name: &str, _labels: &[(&str, &str)], _h: HistogramValue) {}
}

/// Duplicates every event into two recorders, `a` first.
///
/// The sharded simulation core records into a private [`Registry`] (the
/// run's snapshot) while simultaneously feeding any caller-supplied
/// recorder; the tee is what keeps both sides seeing the identical event
/// stream.
pub struct TeeRecorder<'a> {
    /// First recipient of every event.
    pub a: &'a mut dyn Recorder,
    /// Second recipient of every event.
    pub b: &'a mut dyn Recorder,
}

impl Recorder for TeeRecorder<'_> {
    fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.a.incr(name, labels, by);
        self.b.incr(name, labels, by);
    }
    fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.a.gauge_max(name, labels, v);
        self.b.gauge_max(name, labels, v);
    }
    fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.a.observe(name, labels, v);
        self.b.observe(name, labels, v);
    }
    fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramValue) {
        self.a.merge_histogram(name, labels, h.clone());
        self.b.merge_histogram(name, labels, h);
    }
}

/// Decimal label values for the dense integer ids `0..n` (videos,
/// channels), formatted once, so recording a series keyed by an id
/// allocates nothing. All labels share one buffer: a few bytes per id,
/// not one `String` each.
#[derive(Debug, Clone)]
pub struct IdLabels {
    /// Every label, concatenated in id order.
    text: String,
    /// `ends[id]` is the end of `id`'s label in `text`.
    ends: Vec<usize>,
}

impl IdLabels {
    /// The labels of the ids `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        use std::fmt::Write;
        let digits = n
            .saturating_sub(1)
            .checked_ilog10()
            .map_or(1, |d| d as usize + 1);
        let mut text = String::with_capacity(n * digits);
        let mut ends = Vec::with_capacity(n);
        for id in 0..n {
            write!(text, "{id}").expect("writing to a String cannot fail");
            ends.push(text.len());
        }
        Self { text, ends }
    }

    /// Number of ids in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the table holds no ids.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The label value of `id`: its decimal form.
    ///
    /// # Panics
    /// Panics if `id` is not below the table's `n`.
    #[must_use]
    pub fn get(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[id]]
    }
}

/// One recorded metric mutation.
#[derive(Debug, Clone, PartialEq)]
enum OpKind {
    Incr(u64),
    GaugeMax(f64),
    Observe(f64),
    MergeHistogram(HistogramValue),
}

/// One buffered [`Recorder`] event: series key plus mutation.
#[derive(Debug, Clone, PartialEq)]
struct Op {
    name: String,
    labels: Vec<(String, String)>,
    kind: OpKind,
}

/// A recorder that buffers its event stream for deterministic replay.
///
/// Parallel shards cannot share one `&mut dyn Recorder`; instead each
/// shard tees into a private [`OpLog`], and the caller [`OpLog::replay`]s
/// the logs *in shard order* into the destination recorder after the
/// join. Replay preserves per-series event order (each series lives on
/// exactly one shard in the sharded simulation), so the destination ends
/// in the same state a serial run would have produced.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    ops: Vec<Op>,
}

impl OpLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replay the buffered events, in recording order, into `rec`.
    pub fn replay(&self, rec: &mut dyn Recorder) {
        for op in &self.ops {
            let labels: Vec<(&str, &str)> = op
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &op.kind {
                OpKind::Incr(by) => rec.incr(&op.name, &labels, *by),
                OpKind::GaugeMax(v) => rec.gauge_max(&op.name, &labels, *v),
                OpKind::Observe(v) => rec.observe(&op.name, &labels, *v),
                OpKind::MergeHistogram(h) => rec.merge_histogram(&op.name, &labels, h.clone()),
            }
        }
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], kind: OpKind) {
        self.ops.push(Op {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind,
        });
    }
}

impl Recorder for OpLog {
    fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.push(name, labels, OpKind::Incr(by));
    }
    fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.push(name, labels, OpKind::GaugeMax(v));
    }
    fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.push(name, labels, OpKind::Observe(v));
    }
    fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramValue) {
        self.push(name, labels, OpKind::MergeHistogram(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_into(rec: &mut dyn Recorder) {
        rec.incr("events", &[("kind", "a")], 2);
        rec.gauge_max("peak", &[], 4.5);
        rec.observe("lat", &[], 0.7);
        let mut h = HistogramValue::new(&crate::DEFAULT_BUCKETS);
        h.observe(3.5);
        rec.merge_histogram("busy", &[("channel", "2")], h);
    }

    #[test]
    fn registry_implements_recorder() {
        let mut r = Registry::new();
        record_into(&mut r);
        let s = r.snapshot();
        assert_eq!(s.counter("events", "kind=a"), Some(2));
        assert_eq!(s.histogram("lat", "").unwrap().count, 1);
    }

    #[test]
    fn null_recorder_discards() {
        let mut n = NullRecorder;
        record_into(&mut n);
    }

    #[test]
    fn tee_feeds_both_sides_identically() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        {
            let mut tee = TeeRecorder {
                a: &mut a,
                b: &mut b,
            };
            record_into(&mut tee);
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn id_labels_are_decimal() {
        let t = IdLabels::new(1235);
        for id in [0, 7, 9, 10, 99, 100, 1234] {
            assert_eq!(t.get(id), id.to_string());
        }
        assert_eq!(IdLabels::new(1).get(0), "0");
    }

    #[test]
    fn oplog_replay_reproduces_the_direct_registry() {
        let mut direct = Registry::new();
        record_into(&mut direct);
        let mut log = OpLog::new();
        record_into(&mut log);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        let mut replayed = Registry::new();
        log.replay(&mut replayed);
        assert_eq!(
            serde_json::to_string(&direct.snapshot()).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap()
        );
    }
}
