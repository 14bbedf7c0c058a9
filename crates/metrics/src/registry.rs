//! The metric store: labeled families of counters, gauges and histograms,
//! and the serializable [`Snapshot`] they export.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Default histogram bucket upper bounds (minutes-scale quantities).
///
/// A final `+∞` bucket is always implied, so `counts.len()` is
/// `bounds.len() + 1`.
pub const DEFAULT_BUCKETS: [f64; 10] = [0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 120.0];

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// High-water mark, merged by `max`.
    Gauge,
    /// Fixed-bucket distribution with exact count and sum.
    Histogram,
}

/// A histogram over fixed bucket bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramValue {
    /// Bucket upper bounds, strictly increasing; a `+∞` bucket is implied.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of observed values.
    pub sum: f64,
}

impl HistogramValue {
    /// An empty histogram over the given bounds.
    ///
    /// # Panics
    /// Panics unless `bounds` is non-empty, finite and strictly increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram into this one (bucket-wise addition).
    ///
    /// # Panics
    /// Panics if the bucket bounds differ — merging histograms of
    /// different shapes is a programming error, not data.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Exact mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One series' current value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramValue),
}

#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    buckets: Vec<f64>,
    series: BTreeMap<String, MetricValue>,
}

/// The in-process metric store.
///
/// Plain value semantics by design: no interior mutability, no
/// global state. Each simulation shard owns its registry; cross-shard
/// aggregation happens through [`Snapshot::merge`] in a caller-chosen
/// (index) order.
///
/// Recording allocates only when it creates a family or a series: a
/// hit looks the family and the series up by `&str`, building the label
/// key into a buffer the registry reuses.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
    /// Scratch for the label key of the series being recorded.
    key: String,
}

/// Write the canonical label-set key into `out`: `k=v` pairs joined by
/// `,` in caller order.
fn write_label_key(out: &mut String, labels: &[(&str, &str)]) {
    out.clear();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-declare histogram bucket bounds for `name` (otherwise
    /// [`DEFAULT_BUCKETS`] apply on first observation).
    ///
    /// # Panics
    /// Panics if `name` already exists with a different kind or bounds.
    pub fn declare_histogram(&mut self, name: &str, bounds: &[f64]) {
        let f = self.families.entry(name.to_string()).or_insert(Family {
            kind: MetricKind::Histogram,
            buckets: bounds.to_vec(),
            series: BTreeMap::new(),
        });
        assert_eq!(f.kind, MetricKind::Histogram, "{name} is not a histogram");
        assert_eq!(f.buckets, bounds, "{name} re-declared with other bounds");
    }

    /// Apply `op` to the series `name{labels}` of a `kind` family,
    /// creating the family (with [`DEFAULT_BUCKETS`]) and the series
    /// (with `init`) on first use.
    ///
    /// # Panics
    /// Panics if `name` exists with another kind — on every use, not
    /// only on creation.
    fn record(
        &mut self,
        name: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        init: impl FnOnce(&[f64]) -> MetricValue,
        op: impl FnOnce(&mut MetricValue),
    ) {
        write_label_key(&mut self.key, labels);
        let f = match self.families.get_mut(name) {
            Some(f) => f,
            None => self.families.entry(name.to_string()).or_insert(Family {
                kind,
                buckets: DEFAULT_BUCKETS.to_vec(),
                series: BTreeMap::new(),
            }),
        };
        assert_eq!(f.kind, kind, "metric {name} used as two different kinds");
        match f.series.get_mut(self.key.as_str()) {
            Some(v) => op(v),
            None => op(f
                .series
                .entry(self.key.clone())
                .or_insert_with(|| init(&f.buckets))),
        }
    }

    /// Add `by` to the counter `name{labels}`.
    pub fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.record(
            name,
            MetricKind::Counter,
            labels,
            |_| MetricValue::Counter(0),
            |v| match v {
                MetricValue::Counter(c) => *c += by,
                _ => unreachable!("kind checked by record()"),
            },
        );
    }

    /// Raise the gauge `name{labels}` to `v` if `v` is higher.
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.record(
            name,
            MetricKind::Gauge,
            labels,
            |_| MetricValue::Gauge(f64::NEG_INFINITY),
            |g| match g {
                MetricValue::Gauge(g) => *g = g.max(v),
                _ => unreachable!("kind checked by record()"),
            },
        );
    }

    /// Record `v` into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.record(
            name,
            MetricKind::Histogram,
            labels,
            |bounds| MetricValue::Histogram(HistogramValue::new(bounds)),
            |h| match h {
                MetricValue::Histogram(h) => h.observe(v),
                _ => unreachable!("kind checked by record()"),
            },
        );
    }

    /// Hand over the histogram `h` as the series `name{labels}`: moved
    /// in when the series is absent (a new family takes `h`'s bounds),
    /// merged bucket-wise ([`HistogramValue::merge`]) when present.
    ///
    /// # Panics
    /// Panics if `name` exists with another kind, or if `h`'s bounds
    /// differ from the family's.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramValue) {
        write_label_key(&mut self.key, labels);
        let f = match self.families.get_mut(name) {
            Some(f) => f,
            None => self.families.entry(name.to_string()).or_insert(Family {
                kind: MetricKind::Histogram,
                buckets: h.bounds.clone(),
                series: BTreeMap::new(),
            }),
        };
        assert_eq!(
            f.kind,
            MetricKind::Histogram,
            "metric {name} used as two different kinds"
        );
        assert_eq!(f.buckets, h.bounds, "{name} merged with other bounds");
        match f.series.get_mut(self.key.as_str()) {
            Some(MetricValue::Histogram(a)) => a.merge(&h),
            Some(_) => unreachable!("a histogram family holds histograms"),
            None => {
                f.series.insert(self.key.clone(), MetricValue::Histogram(h));
            }
        }
    }

    /// Rebuild a registry from a [`Snapshot`], the exact inverse of
    /// [`Registry::snapshot`]: `Registry::from_snapshot(&r.snapshot())`
    /// observes like `r` itself from that point on, bit for bit.
    ///
    /// This is the checkpoint/restore path's primitive — a crashed shard
    /// resumes its metric state mid-run and keeps accumulating into the
    /// *same* counters, gauges and float sums, so the final snapshot is
    /// byte-identical to an uninterrupted run. (Merging a checkpoint
    /// snapshot with a freshly-recorded tail would not be: float sums
    /// re-associate.)
    ///
    /// Histogram families recover their bucket bounds from the first
    /// series' stored [`HistogramValue::bounds`]; a histogram family with
    /// no series yet falls back to [`DEFAULT_BUCKETS`], which is the only
    /// shape the simulation core ever declares.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut families = BTreeMap::new();
        // Room for the longest stored key, so recording into a restored
        // series never grows the key buffer.
        let mut key_len = 0;
        for f in &snap.families {
            key_len = f.series.iter().fold(key_len, |n, s| n.max(s.labels.len()));
            let buckets = f
                .series
                .iter()
                .find_map(|s| match &s.value {
                    MetricValue::Histogram(h) => Some(h.bounds.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| DEFAULT_BUCKETS.to_vec());
            families.insert(
                f.name.clone(),
                Family {
                    kind: f.kind,
                    buckets,
                    series: f
                        .series
                        .iter()
                        .map(|s| (s.labels.clone(), s.value.clone()))
                        .collect(),
                },
            );
        }
        Self {
            families,
            key: String::with_capacity(key_len),
        }
    }

    /// Export the registry as a serializable, mergeable [`Snapshot`].
    /// Families and series appear in sorted-name order — the same bytes
    /// however the registry was filled.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            families: self
                .families
                .iter()
                .map(|(name, f)| FamilySnapshot {
                    name: name.clone(),
                    kind: f.kind,
                    series: f
                        .series
                        .iter()
                        .map(|(labels, value)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: value.clone(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One series inside a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Canonical label string (`k=v` pairs joined by `,`).
    pub labels: String,
    /// The series value.
    pub value: MetricValue,
}

/// One metric family inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySnapshot {
    /// Family name.
    pub name: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Series in sorted label order.
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time export of a [`Registry`]: sorted, serializable, and
/// mergeable. Merging is commutative for counters and gauges and
/// order-independent for histograms of equal bounds, but callers should
/// still merge in a deterministic (index) order so float sums accumulate
/// identically run to run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Families in sorted name order.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// Fold `other` into `self`: counters add, gauges take the max,
    /// histograms add bucket-wise. Families or series present on one side
    /// only are kept as-is.
    ///
    /// # Panics
    /// Panics when the same series has different kinds or histogram
    /// bounds on the two sides.
    pub fn merge(&mut self, other: &Snapshot) {
        for of in &other.families {
            match self.families.binary_search_by(|f| f.name.cmp(&of.name)) {
                Err(pos) => self.families.insert(pos, of.clone()),
                Ok(pos) => {
                    let f = &mut self.families[pos];
                    assert_eq!(f.kind, of.kind, "family {} has two kinds", f.name);
                    for os in &of.series {
                        match f.series.binary_search_by(|s| s.labels.cmp(&os.labels)) {
                            Err(pos) => f.series.insert(pos, os.clone()),
                            Ok(pos) => match (&mut f.series[pos].value, &os.value) {
                                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                                    a.merge(b);
                                }
                                _ => panic!("series {}{{{}}} has two kinds", f.name, os.labels),
                            },
                        }
                    }
                }
            }
        }
    }

    /// Merge an ordered sequence of snapshots (index order = determinism).
    #[must_use]
    pub fn merged(parts: impl IntoIterator<Item = Snapshot>) -> Snapshot {
        let mut out = Snapshot::default();
        for p in parts {
            out.merge(&p);
        }
        out
    }

    /// Look up a family by name.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families
            .binary_search_by(|f| f.name.cmp(&name.to_string()))
            .ok()
            .map(|i| &self.families[i])
    }

    /// A counter series' value, if present.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &str) -> Option<u64> {
        match self.series_value(name, labels)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Sum of every series of a counter family (0 when absent).
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name).map_or(0, |f| {
            f.series
                .iter()
                .map(|s| match &s.value {
                    MetricValue::Counter(c) => *c,
                    _ => 0,
                })
                .sum()
        })
    }

    /// A histogram series, if present.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&HistogramValue> {
        match self.series_value(name, labels)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    fn series_value(&self, name: &str, labels: &str) -> Option<&MetricValue> {
        let f = self.family(name)?;
        f.series
            .binary_search_by(|s| s.labels.as_str().cmp(labels))
            .ok()
            .map(|i| &f.series[i].value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let mut r = Registry::new();
        r.incr("sessions", &[("video", "2")], 1);
        r.incr("sessions", &[("video", "0")], 2);
        r.incr("sessions", &[("video", "2")], 3);
        let s = r.snapshot();
        let f = s.family("sessions").unwrap();
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].labels, "video=0");
        assert_eq!(s.counter("sessions", "video=2"), Some(4));
        assert_eq!(s.counter_total("sessions"), 6);
    }

    #[test]
    fn from_snapshot_resumes_recording_bit_for_bit() {
        // Record a prefix, snapshot, restore, record the suffix — the
        // result must equal recording the whole stream into one registry.
        // The values are chosen so float-sum association matters.
        let obs = [0.1f64, 0.2, 0.7, 1e-9, 3.3, 0.001, 2.2];
        let mut whole = Registry::new();
        for (i, &v) in obs.iter().enumerate() {
            whole.incr("n", &[("k", "a")], i as u64 + 1);
            whole.observe("lat", &[("k", "a")], v);
            whole.gauge_max("peak", &[], v);
        }
        let mut prefix = Registry::new();
        for (i, &v) in obs.iter().take(3).enumerate() {
            prefix.incr("n", &[("k", "a")], i as u64 + 1);
            prefix.observe("lat", &[("k", "a")], v);
            prefix.gauge_max("peak", &[], v);
        }
        let mut resumed = Registry::from_snapshot(&prefix.snapshot());
        for (i, &v) in obs.iter().enumerate().skip(3) {
            resumed.incr("n", &[("k", "a")], i as u64 + 1);
            resumed.observe("lat", &[("k", "a")], v);
            resumed.gauge_max("peak", &[], v);
        }
        assert_eq!(whole.snapshot(), resumed.snapshot());
        // Exact round trip of the snapshot itself, including the float
        // sum, which a merge-based restore would re-associate.
        assert_eq!(
            Registry::from_snapshot(&whole.snapshot()).snapshot(),
            whole.snapshot()
        );
    }

    #[test]
    fn gauge_is_high_water_mark() {
        let mut r = Registry::new();
        r.gauge_max("peak", &[], 3.0);
        r.gauge_max("peak", &[], 1.0);
        let s = r.snapshot();
        assert_eq!(
            s.family("peak").unwrap().series[0].value,
            MetricValue::Gauge(3.0)
        );
    }

    #[test]
    fn histogram_buckets_count_and_mean() {
        let mut h = HistogramValue::new(&[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.mean() - 14.1).abs() < 1e-12);
    }

    #[test]
    fn snapshot_bytes_independent_of_insertion_order() {
        let mut a = Registry::new();
        a.incr("x", &[("v", "1")], 1);
        a.incr("y", &[], 1);
        let mut b = Registry::new();
        b.incr("y", &[], 1);
        b.incr("x", &[("v", "1")], 1);
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn merge_adds_counters_and_histograms_maxes_gauges() {
        let mut a = Registry::new();
        a.incr("c", &[], 1);
        a.gauge_max("g", &[], 2.0);
        a.observe("h", &[], 0.2);
        let mut b = Registry::new();
        b.incr("c", &[], 2);
        b.gauge_max("g", &[], 1.0);
        b.observe("h", &[], 7.0);
        b.incr("only_b", &[], 5);
        let merged = Snapshot::merged([a.snapshot(), b.snapshot()]);
        assert_eq!(merged.counter("c", ""), Some(3));
        assert_eq!(merged.counter("only_b", ""), Some(5));
        assert_eq!(
            merged.family("g").unwrap().series[0].value,
            MetricValue::Gauge(2.0)
        );
        let h = merged.histogram("h", "").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 7.2).abs() < 1e-12);
    }

    #[test]
    fn merge_order_of_equal_shards_is_immaterial() {
        let mut a = Registry::new();
        a.observe("h", &[], 1.0);
        let mut b = Registry::new();
        b.observe("h", &[], 2.0);
        let ab = Snapshot::merged([a.snapshot(), b.snapshot()]);
        let ba = Snapshot::merged([b.snapshot(), a.snapshot()]);
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap()
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = Registry::new();
        r.incr("c", &[("k", "v")], 3);
        r.observe("h", &[], 0.3);
        r.gauge_max("g", &[], 9.5);
        let s = r.snapshot();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "two different kinds")]
    fn kind_confusion_panics() {
        let mut r = Registry::new();
        r.incr("m", &[], 1);
        r.observe("m", &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "two different kinds")]
    fn kind_confusion_panics_on_the_hit_path() {
        // The family and its series exist before the second, mistyped
        // use, so the assertion must fire on a lookup, not on creation.
        let mut r = Registry::new();
        r.observe("m", &[("k", "a")], 1.0);
        r.observe("m", &[("k", "a")], 2.0);
        r.incr("m", &[("k", "a")], 1);
    }

    #[test]
    fn declared_bounds_survive_repeat_observations() {
        let bounds = [0.5, 4.0, 16.0];
        let mut r = Registry::new();
        r.declare_histogram("h", &bounds);
        for i in 0..1_000 {
            r.observe(
                "h",
                &[("k", if i % 2 == 0 { "a" } else { "b" })],
                f64::from(i % 20),
            );
        }
        let s = r.snapshot();
        for labels in ["k=a", "k=b"] {
            let h = s.histogram("h", labels).unwrap();
            assert_eq!(h.bounds, bounds, "{labels}");
            assert_eq!(h.count, 500, "{labels}");
            assert_eq!(h.counts.iter().sum::<u64>(), 500, "{labels}");
        }
        // Re-declaring with the same bounds after use is still accepted.
        r.declare_histogram("h", &bounds);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn interleaved_creates_and_hits_match_a_plain_model(
            len in 1usize..120,
            fams in proptest::collection::vec(0usize..6, 120),
            labs in proptest::collection::vec(0usize..4, 120),
            raws in proptest::collection::vec(0u32..400, 120),
        ) {
            // Family `i` always has kind `i % 3`, so no op panics; label
            // sets 0..4 include the empty set and a two-pair set.
            const NAMES: [&str; 6] = ["c0", "g1", "h2", "c3", "g4", "h5"];
            const KINDS: [MetricKind; 3] =
                [MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram];
            const LABELS: [&[(&str, &str)]; 4] =
                [&[], &[("k", "a")], &[("k", "b")], &[("k", "a"), ("j", "x")]];
            let mut reg = Registry::new();
            let mut model: BTreeMap<&str, (MetricKind, BTreeMap<String, MetricValue>)> =
                BTreeMap::new();
            for ((&f, &l), &raw) in fams.iter().zip(&labs).zip(&raws).take(len) {
                let (name, labels, kind) = (NAMES[f], LABELS[l], KINDS[f % 3]);
                let key = labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                let x = f64::from(raw) / 8.0;
                let series = &mut model.entry(name).or_insert((kind, BTreeMap::new())).1;
                match series.entry(key).or_insert_with(|| match kind {
                    MetricKind::Counter => MetricValue::Counter(0),
                    MetricKind::Gauge => MetricValue::Gauge(f64::NEG_INFINITY),
                    MetricKind::Histogram => {
                        MetricValue::Histogram(HistogramValue::new(&DEFAULT_BUCKETS))
                    }
                }) {
                    MetricValue::Counter(c) => {
                        reg.incr(name, labels, u64::from(raw));
                        *c += u64::from(raw);
                    }
                    MetricValue::Gauge(g) => {
                        reg.gauge_max(name, labels, x);
                        *g = g.max(x);
                    }
                    MetricValue::Histogram(h) => {
                        reg.observe(name, labels, x);
                        h.observe(x);
                    }
                }
            }
            let expected = Snapshot {
                families: model
                    .into_iter()
                    .map(|(name, (kind, series))| FamilySnapshot {
                        name: name.to_string(),
                        kind,
                        series: series
                            .into_iter()
                            .map(|(labels, value)| SeriesSnapshot { labels, value })
                            .collect(),
                    })
                    .collect(),
            };
            proptest::prop_assert_eq!(
                serde_json::to_string(&reg.snapshot()).unwrap(),
                serde_json::to_string(&expected).unwrap()
            );
        }
    }

    #[test]
    fn merged_histogram_is_inserted_whole_or_merged_bucket_wise() {
        let values = [0.003, 0.7, 0.7, 12.0, 500.0, 0.1 + 0.2];
        let mut observed = Registry::new();
        let mut h = HistogramValue::new(&DEFAULT_BUCKETS);
        for &v in &values {
            observed.observe("busy", &[("channel", "7")], v);
            h.observe(v);
        }
        // Into an absent series: the same bytes as the observations.
        let mut merged = Registry::new();
        merged.merge_histogram("busy", &[("channel", "7")], h.clone());
        assert_eq!(
            serde_json::to_string(&merged.snapshot()).unwrap(),
            serde_json::to_string(&observed.snapshot()).unwrap()
        );
        // Into a present series: bucket-wise addition.
        merged.merge_histogram("busy", &[("channel", "7")], h.clone());
        let twice = merged.snapshot();
        let got = twice.histogram("busy", "channel=7").unwrap();
        let mut want = h.clone();
        want.merge(&h);
        assert_eq!(got, &want);
    }

    #[test]
    #[should_panic(expected = "two different kinds")]
    fn merging_a_histogram_into_a_counter_panics() {
        let mut r = Registry::new();
        r.incr("m", &[], 1);
        r.merge_histogram("m", &[], HistogramValue::new(&DEFAULT_BUCKETS));
    }

    #[test]
    #[should_panic(expected = "merged with other bounds")]
    fn merging_other_bounds_into_a_family_panics() {
        let mut r = Registry::new();
        r.declare_histogram("h", &[1.0, 2.0]);
        r.merge_histogram("h", &[], HistogramValue::new(&DEFAULT_BUCKETS));
    }

    #[test]
    #[should_panic(expected = "bounds must match")]
    fn histogram_bound_mismatch_panics() {
        let mut a = HistogramValue::new(&[1.0]);
        let b = HistogramValue::new(&[2.0]);
        a.merge(&b);
    }
}
