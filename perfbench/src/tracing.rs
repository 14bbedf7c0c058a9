//! Spans recorded from the benchmark's own files around each call into
//! a layer. Nothing inside the program is instrumented.
//!
//! A span has a name, a start, an end and a parent; spans of one request
//! share its index. Whole-layer calls (planning, a shard run, a replay)
//! always record a span. Per-session calls, which run millions of times,
//! add their count and busy time to the layer at the boundary and keep
//! only every `sample_every`-th request's spans, so memory stays bounded.
//! Spans stay in memory until [`Tracer::write_json`] at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `client` or `shard.merge`.
    pub name: &'static str,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Index of the request this span served, for per-session spans.
    pub request: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Calls made and time spent in one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Calls timed.
    pub count: u64,
    /// Host seconds inside them.
    pub seconds: f64,
}

/// The span recorder. A disabled tracer records nothing, so the
/// untraced run times the same code without the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    sample_every: usize,
    epoch: Instant,
    spans: Vec<Span>,
    busy: BTreeMap<&'static str, Busy>,
}

/// A begun span: the index it will fill and the instant it began.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<SpanId>,
    name: &'static str,
    started: Instant,
}

impl Open {
    /// The span's id, for children; `None` when tracing is off.
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Tracer {
    /// A tracer that keeps every span of whole-layer calls and the
    /// per-session spans of one request in `sample_every`.
    #[must_use]
    pub fn new(sample_every: usize) -> Self {
        Self {
            enabled: true,
            sample_every: sample_every.max(1),
            epoch: Instant::now(),
            spans: Vec::new(),
            busy: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new(1)
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a whole-layer span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Open {
        let started = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent,
                request: None,
                start_ns: self.ns(started),
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        Open { id, name, started }
    }

    /// Close `open`, adding its duration to the name's busy time.
    /// Returns the duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(open.started).as_secs_f64();
        if let Some(id) = open.id {
            self.spans[id].end_ns = self.ns(now);
            let b = self.busy.entry(open.name).or_default();
            b.count += 1;
            b.seconds += secs;
        }
        secs
    }

    /// Time one per-session call for request `request` under `parent`:
    /// the count and busy time always accumulate, the span is kept only
    /// for sampled requests.
    pub fn session<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let ended = Instant::now();
        let b = self.busy.entry(name).or_default();
        b.count += 1;
        b.seconds += ended.duration_since(started).as_secs_f64();
        if request.is_multiple_of(self.sample_every) {
            self.spans.push(Span {
                name,
                parent,
                request: Some(request),
                start_ns: self.ns(started),
                end_ns: self.ns(ended),
            });
        }
        out
    }

    /// Busy time and count per span name so far.
    #[must_use]
    pub fn busy(&self, name: &str) -> Busy {
        self.busy.get(name).copied().unwrap_or_default()
    }

    /// Forget the busy totals (spans stay), so each pass reads its own.
    pub fn reset_busy(&mut self) {
        self.busy.clear();
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON document, with each span's self time
    /// (its duration minus the part its children cover).
    #[must_use]
    pub fn write_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_session_spans_are_sampled_but_always_counted() {
        let mut tr = Tracer::new(10);
        let root = tr.begin("root", None);
        for i in 0..25 {
            tr.session("leaf", root.id(), i, || std::hint::black_box(i));
        }
        tr.end(root);
        assert_eq!(tr.busy("leaf").count, 25);
        // Requests 0, 10 and 20, plus the root.
        assert_eq!(tr.spans().len(), 4);
        assert!(tr.spans()[1..].iter().all(|s| s.parent == Some(0)));
        assert!(tr.write_json().contains("\"self_ns\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin("x", None);
        assert_eq!(tr.session("y", s.id(), 0, || 7), 7);
        tr.end(s);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.busy("x"), Busy::default());
    }
}
