//! A small, deterministic discrete-event engine.
//!
//! The broadcast side of the simulator is deterministic and computed in
//! closed form ([`crate::schedule`]), but whole-system questions — how many
//! clients are active at once, how a channel pool drains a request queue —
//! need an agenda-driven simulation. This engine provides exactly that:
//! a tick clock ([`vod_units::Ticks`]), an agenda ([`crate::agenda`])
//! with deterministic FIFO tie-breaking, and event cancellation. Every
//! run path uses the binary-heap agenda; the timing wheel stays as an
//! engine-level backend ([`Engine::with_agenda`]) that the engine
//! benchmarks time against it.
//!
//! Events are user-defined payloads; the engine is generic and contains no
//! domain logic. Determinism matters for reproducible experiments: two
//! events scheduled for the same tick fire in the order they were
//! scheduled, regardless of backend internals — the binary heap and the
//! hierarchical timing wheel ([`AgendaKind`]) yield bitwise-identical
//! runs.
//!
//! ## The agenda: slab slots, generations, amortized compaction
//!
//! Event liveness is tracked in a **slab**: every scheduled event owns a
//! slot (reused through a free list), and an [`EventId`] packs the slot
//! index with the slot's **generation** — bumped every time the slot is
//! freed — so a stale id can never alias a later event that happens to
//! reuse the slot. Lookup, scheduling and cancellation are all O(1) with
//! no hashing. The slab lives in the engine, *outside* the backend: a
//! backend is a pure `(tick, seq)` priority queue and surfaces stale
//! entries like any others, which is exactly what keeps backends
//! interchangeable (see [`crate::agenda`]).
//!
//! Cancellation is **lazy**: the agenda entry of a cancelled event stays
//! in the store until it surfaces (or a compaction removes it). Lazy
//! alone is unbounded — a workload that cancels most of what it schedules
//! (fault scripts, allocator drain-swaps) grows the agenda forever even
//! though almost nothing in it is live. So the engine **compacts**:
//! whenever the stale entries outnumber the live ones (past a small floor
//! that keeps tiny agendas out of the machinery), the store drops its
//! stale entries in O(n). Every stale entry is paid for at most twice —
//! once when cancelled, once when compacted away — so the amortized cost
//! stays O(log n) per operation and the agenda length is bounded by
//! roughly 2× the live event count at all times (see
//! [`Engine::agenda_len`]).

use vod_units::{TickDuration, Ticks};

use crate::agenda::{Agenda, AgendaEntry, AgendaKind, HeapAgenda, WheelAgenda, WheelStats};

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs a slab slot index with that slot's generation at scheduling
/// time, so ids stay valid (as *rejected*, not misdelivered) after the
/// slot is reused by a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    pub(crate) fn new(slot: u32, gen: u32) -> Self {
        Self(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: the current generation plus whether an event lives here.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bumped on every free; an agenda entry is live iff its recorded
    /// generation matches.
    gen: u32,
    /// `true` while a scheduled, un-fired, un-cancelled event owns the
    /// slot.
    occupied: bool,
}

/// Lifetime counters of an [`Engine`]'s agenda traffic.
///
/// Deterministic for a deterministic run, so they can be exported into a
/// metrics snapshot: `scheduled == fired + cancelled + pending` holds at
/// every instant, on every backend.
///
/// The serialized form deliberately omits [`EngineStats::wheel`]: those
/// counters describe the backend, not the simulation, and artifacts must
/// stay byte-identical whichever backend produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events that fired.
    pub fired: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// High-water mark of the agenda length (live + stale entries) —
    /// the engine's memory footprint in events.
    pub peak_agenda: u64,
    /// Store rebuilds that purged stale (lazily-cancelled) entries.
    pub compactions: u64,
    /// Wheel-backend counters; all zero on the heap backend. Excluded
    /// from the serialized form (see the type docs).
    pub wheel: WheelStats,
}

impl serde::Serialize for EngineStats {
    fn serialize(&self) -> serde::Value {
        let u = |v: &u64| serde::Serialize::serialize(v);
        serde::Value::Object(vec![
            ("scheduled".to_string(), u(&self.scheduled)),
            ("fired".to_string(), u(&self.fired)),
            ("cancelled".to_string(), u(&self.cancelled)),
            ("peak_agenda".to_string(), u(&self.peak_agenda)),
            ("compactions".to_string(), u(&self.compactions)),
        ])
    }
}

impl serde::Deserialize for EngineStats {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected EngineStats object"))?;
        let u = |name: &str| -> Result<u64, serde::Error> {
            <u64 as serde::Deserialize>::deserialize(serde::field(obj, name))
        };
        Ok(Self {
            scheduled: u("scheduled")?,
            fired: u("fired")?,
            cancelled: u("cancelled")?,
            peak_agenda: u("peak_agenda")?,
            compactions: u("compactions")?,
            wheel: WheelStats::default(),
        })
    }
}

/// Agendas smaller than this never compact: below the floor the stale
/// entries cost less than the rebuild bookkeeping.
pub(crate) const COMPACT_FLOOR: usize = 32;

/// A backend-independent still image of an [`Engine`]: the clock, the
/// FIFO sequence counter, the lifetime stats, and every *live* pending
/// entry in canonical `(at, seq)` order.
///
/// This is the checkpoint/restore primitive. The frozen form deliberately
/// forgets backend internals (heap layout, wheel cursors) and slab
/// bookkeeping (slot indices, generations, free lists): none of them are
/// observable through the engine's pop order or serialized stats, so a
/// freeze taken under one [`AgendaKind`] thaws under the other and the
/// resumed run stays bitwise identical either way.
#[derive(Debug, Clone)]
pub struct FrozenEngine<E> {
    /// The clock at freeze time.
    pub now: Ticks,
    /// Next schedule sequence number (monotonic, never reused).
    pub seq: u64,
    /// Lifetime counters at freeze time ([`EngineStats::wheel`] zeroed —
    /// backend counters are not part of the simulation state).
    pub stats: EngineStats,
    /// Live pending entries as `(at, seq, payload)`, sorted by
    /// `(at, seq)`.
    pub entries: Vec<(Ticks, u64, E)>,
}

/// The event store behind an engine, statically dispatched over the two
/// built-in backends.
enum Backend<E> {
    Heap(HeapAgenda<E>),
    Wheel(WheelAgenda<E>),
}

impl<E> Backend<E> {
    fn push(&mut self, entry: AgendaEntry<E>) {
        match self {
            Backend::Heap(a) => a.push(entry),
            Backend::Wheel(a) => a.push(entry),
        }
    }

    fn pop(&mut self) -> Option<AgendaEntry<E>> {
        match self {
            Backend::Heap(a) => a.pop(),
            Backend::Wheel(a) => a.pop(),
        }
    }

    fn peek(&mut self) -> Option<(Ticks, EventId)> {
        match self {
            Backend::Heap(a) => a.peek(),
            Backend::Wheel(a) => a.peek(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Heap(a) => Agenda::len(a),
            Backend::Wheel(a) => Agenda::len(a),
        }
    }

    fn retain(&mut self, keep: &mut dyn FnMut(&AgendaEntry<E>) -> bool) {
        match self {
            Backend::Heap(a) => a.retain(keep),
            Backend::Wheel(a) => a.retain(keep),
        }
    }

    fn wheel_stats(&self) -> WheelStats {
        match self {
            Backend::Heap(a) => a.wheel_stats(),
            Backend::Wheel(a) => a.wheel_stats(),
        }
    }
}

/// The discrete-event engine: a clock plus an agenda of pending events.
pub struct Engine<E> {
    now: Ticks,
    /// Monotonic FIFO tie-break counter (never reused, unlike slots).
    seq: u64,
    backend: Backend<E>,
    /// Slab of event slots; `EventId`s index into it.
    slots: Vec<Slot>,
    /// Freed slot indices available for reuse.
    free: Vec<u32>,
    /// Live (scheduled, neither fired nor cancelled) events.
    live: usize,
    /// Cancelled events whose agenda entries have not yet been dropped.
    stale: usize,
    stats: EngineStats,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at tick zero with an empty agenda on the default
    /// (heap) backend.
    #[must_use]
    pub fn new() -> Self {
        Self::with_agenda(AgendaKind::Heap)
    }

    /// A fresh engine on the chosen built-in backend. Runs are bitwise
    /// identical whichever `kind` is passed; only wall-clock speed and
    /// [`EngineStats::wheel`] differ.
    #[must_use]
    pub fn with_agenda(kind: AgendaKind) -> Self {
        Self::from_backend(match kind {
            AgendaKind::Heap => Backend::Heap(HeapAgenda::new()),
            AgendaKind::Wheel => Backend::Wheel(WheelAgenda::new()),
        })
    }

    fn from_backend(backend: Backend<E>) -> Self {
        Self {
            now: Ticks::ZERO,
            seq: 0,
            backend,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            stale: 0,
            stats: EngineStats::default(),
        }
    }

    /// Lifetime agenda counters (scheduled / fired / cancelled / peaks),
    /// including the backend's [`WheelStats`].
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.wheel = self.backend.wheel_stats();
        s
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Number of pending (non-cancelled) events. O(1), exact across
    /// cancellations and compactions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Current agenda length: live entries plus stale entries awaiting
    /// lazy removal. Compaction keeps this bounded by roughly
    /// `2 × pending()` (plus the compaction floor).
    #[must_use]
    pub fn agenda_len(&self) -> usize {
        self.backend.len()
    }

    /// Whether `id` still names a scheduled, un-fired, un-cancelled
    /// event.
    fn id_live(&self, id: EventId) -> bool {
        let s = self.slots[id.slot() as usize];
        s.occupied && s.gen == id.gen()
    }

    /// Free `slot`, invalidating every outstanding reference to it.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.occupied = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    /// Schedule `payload` at the absolute tick `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current time — the past is immutable.
    pub fn schedule_at(&mut self, at: Ticks, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].occupied = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("agenda outgrew u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    occupied: true,
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let id = EventId::new(slot, gen);
        self.backend.push(AgendaEntry {
            at,
            seq: self.seq,
            id,
            payload,
        });
        self.live += 1;
        self.seq += 1;
        self.stats.scheduled += 1;
        self.stats.peak_agenda = self.stats.peak_agenda.max(self.backend.len() as u64);
        id
    }

    /// Schedule `payload` after a delay from now.
    pub fn schedule_in(&mut self, delay: TickDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Capture the engine's simulation-visible state as a
    /// [`FrozenEngine`]: clock, sequence counter, stats, and the live
    /// pending entries in canonical `(at, seq)` order. Stale (cancelled)
    /// entries are not captured — they are an implementation artifact of
    /// lazy cancellation, already counted in `stats.cancelled`.
    ///
    /// Takes `&mut self` because enumerating a backend goes through its
    /// `retain` hook; the agenda itself is left untouched (every entry is
    /// kept) and the engine keeps running afterwards.
    #[must_use]
    pub fn freeze(&mut self) -> FrozenEngine<E>
    where
        E: Clone,
    {
        let mut entries: Vec<(Ticks, u64, E)> = Vec::with_capacity(self.live);
        let slots = &self.slots;
        self.backend.retain(&mut |e: &AgendaEntry<E>| {
            let s = slots[e.id.slot() as usize];
            if s.occupied && s.gen == e.id.gen() {
                entries.push((e.at, e.seq, e.payload.clone()));
            }
            true
        });
        entries.sort_by_key(|&(at, seq, _)| (at, seq));
        debug_assert_eq!(entries.len(), self.live, "freeze must capture the live set");
        let mut stats = self.stats;
        stats.wheel = WheelStats::default();
        FrozenEngine {
            now: self.now,
            seq: self.seq,
            stats,
            entries,
        }
    }

    /// Rebuild an engine from a [`FrozenEngine`] on the chosen backend.
    ///
    /// The thawed engine is in *canonical* form — a fresh slab with one
    /// slot per pending entry and an empty free list — which is
    /// indistinguishable from the original through every observable:
    /// pop order (`(at, seq)` is preserved verbatim), `pending()`,
    /// `stats()`, and the serialized artifacts derived from them. A
    /// freeze taken under [`AgendaKind::Heap`] may therefore be thawed
    /// under [`AgendaKind::Wheel`] and vice versa.
    #[must_use]
    pub fn thaw(frozen: FrozenEngine<E>, kind: AgendaKind) -> Self {
        let mut eng = Self::with_agenda(kind);
        eng.now = frozen.now;
        eng.seq = frozen.seq;
        eng.stats = frozen.stats;
        for (i, (at, seq, payload)) in frozen.entries.into_iter().enumerate() {
            let slot = u32::try_from(i).expect("agenda outgrew u32 slots");
            eng.slots.push(Slot {
                gen: 0,
                occupied: true,
            });
            eng.backend.push(AgendaEntry {
                at,
                seq,
                id: EventId::new(slot, 0),
                payload,
            });
            eng.live += 1;
        }
        eng
    }

    /// Cancel a pending event. Returns `true` if it had not yet fired.
    ///
    /// Ids that never existed, already fired, or were already cancelled
    /// all return `false` and leave the agenda untouched — so
    /// [`Engine::pending`] stays exact no matter what callers pass in.
    ///
    /// The agenda entry is dropped lazily — either when it surfaces in
    /// [`Engine::next`]/[`Engine::run_until`] or when stale entries
    /// outnumber live ones and the agenda compacts.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (slot, gen) = (id.slot(), id.gen());
        match self.slots.get(slot as usize) {
            Some(s) if s.occupied && s.gen == gen => {}
            _ => return false,
        }
        self.release(slot);
        self.stale += 1;
        self.stats.cancelled += 1;
        self.maybe_compact();
        true
    }

    /// Drop the store's stale entries once they outnumber the live ones.
    /// O(current agenda); amortized O(1) per cancel, because at least
    /// half the entries paid for by the rebuild are discarded by it.
    fn maybe_compact(&mut self) {
        if self.stale <= self.live || self.backend.len() < COMPACT_FLOOR {
            return;
        }
        let slots = &self.slots;
        self.backend.retain(&mut |e: &AgendaEntry<E>| {
            let s = slots[e.id.slot() as usize];
            s.occupied && s.gen == e.id.gen()
        });
        debug_assert_eq!(
            self.backend.len(),
            self.live,
            "compaction must keep exactly the live set"
        );
        self.stale = 0;
        self.stats.compactions += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    /// Returns `None` when the agenda is exhausted.
    ///
    /// Deliberately named like `Iterator::next`; the engine is not an
    /// `Iterator` only because handlers need `&mut self` back.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Ticks, E)> {
        while let Some(entry) = self.backend.pop() {
            if !self.id_live(entry.id) {
                self.stale -= 1;
                continue; // cancelled; drop the stale entry
            }
            self.release(entry.id.slot());
            debug_assert!(entry.at >= self.now, "agenda went backwards");
            self.now = entry.at;
            self.stats.fired += 1;
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Run the agenda to exhaustion, calling `handler` for each event.
    /// The handler may schedule further events through the engine.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, Ticks, E)) {
        while let Some((at, payload)) = self.next() {
            handler(self, at, payload);
        }
    }
}

// `run` needs to pass `&mut self` into the handler while iterating; do the
// loop manually to satisfy the borrow checker.
impl<E> Engine<E> {
    /// Like [`Engine::run`] but stops once the clock passes `horizon`
    /// (events beyond it stay pending).
    pub fn run_until(&mut self, horizon: Ticks, mut handler: impl FnMut(&mut Self, Ticks, E)) {
        loop {
            // Peek for the horizon check without consuming.
            let next_at = loop {
                match self.backend.peek() {
                    Some((at, id)) => {
                        if self.id_live(id) {
                            break Some(at);
                        }
                        self.backend.pop(); // cancelled; drop the stale entry
                        self.stale -= 1;
                    }
                    None => break None,
                }
            };
            match next_at {
                Some(at) if at <= horizon => {
                    let (at, payload) = self.next().expect("peeked event exists");
                    handler(self, at, payload);
                }
                _ => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_time_order_with_fifo_ties() {
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<&'static str> = Engine::with_agenda(kind);
            eng.schedule_at(Ticks(10), "b");
            eng.schedule_at(Ticks(5), "a");
            eng.schedule_at(Ticks(10), "c"); // same tick as "b", scheduled later
            let mut seen = Vec::new();
            eng.run(|_, at, p| seen.push((at.0, p)));
            assert_eq!(seen, vec![(5, "a"), (10, "b"), (10, "c")], "{kind:?}");
        }
    }

    #[test]
    fn handler_can_schedule_more() {
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<u32> = Engine::with_agenda(kind);
            eng.schedule_at(Ticks(1), 0);
            let mut fired = Vec::new();
            eng.run(|eng, _, n| {
                fired.push(n);
                if n < 4 {
                    eng.schedule_in(TickDuration(2), n + 1);
                }
            });
            assert_eq!(fired, vec![0, 1, 2, 3, 4]);
            assert_eq!(eng.now(), Ticks(9));
        }
    }

    #[test]
    fn cancellation() {
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<&'static str> = Engine::with_agenda(kind);
            let a = eng.schedule_at(Ticks(1), "a");
            eng.schedule_at(Ticks(2), "b");
            assert!(eng.cancel(a));
            assert!(!eng.cancel(a), "double-cancel reports false");
            assert_eq!(eng.pending(), 1);
            let mut seen = Vec::new();
            eng.run(|_, _, p| seen.push(p));
            assert_eq!(seen, vec!["b"]);
        }
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut eng: Engine<()> = Engine::new();
        assert!(!eng.cancel(EventId::new(42, 0)));
        assert!(!eng.cancel(EventId::new(0, 7)));
    }

    #[test]
    fn cancel_after_fire_is_false_and_pending_stays_exact() {
        // Regression: cancelling an id that already fired used to be
        // accepted, leaking a tombstone that made `pending()` underflow
        // once the agenda drained.
        let mut eng: Engine<&'static str> = Engine::new();
        let a = eng.schedule_at(Ticks(1), "a");
        eng.schedule_at(Ticks(2), "b");
        assert_eq!(eng.pending(), 2);
        let (_, p) = eng.next().expect("a fires");
        assert_eq!(p, "a");
        assert!(!eng.cancel(a), "cancelling a fired event must fail");
        assert_eq!(eng.pending(), 1, "the refused cancel must not count");
        let (_, p) = eng.next().expect("b fires");
        assert_eq!(p, "b");
        assert_eq!(eng.pending(), 0);
        assert!(eng.next().is_none());
        // And cancelling after exhaustion is still a clean no-op.
        assert!(!eng.cancel(a));
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn stale_id_does_not_cancel_a_slot_reuser() {
        // Slot reuse must not let an old id reach the new tenant: the
        // generation in the id has to mismatch.
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<&'static str> = Engine::with_agenda(kind);
            let a = eng.schedule_at(Ticks(1), "a");
            assert!(eng.cancel(a));
            // "b" reuses slot 0 at a later generation.
            let b = eng.schedule_at(Ticks(2), "b");
            assert!(!eng.cancel(a), "the stale id must not hit b");
            assert_eq!(eng.pending(), 1);
            let mut seen = Vec::new();
            eng.run(|_, _, p| seen.push(p));
            assert_eq!(seen, vec!["b"]);
            assert!(!eng.cancel(b), "b already fired");
        }
    }

    #[test]
    fn cancelled_event_skipped_by_run_until_peek() {
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<u8> = Engine::with_agenda(kind);
            let a = eng.schedule_at(Ticks(1), 1);
            eng.schedule_at(Ticks(2), 2);
            eng.schedule_at(Ticks(100), 3);
            assert!(eng.cancel(a));
            let mut seen = Vec::new();
            eng.run_until(Ticks(50), |_, _, p| seen.push(p));
            assert_eq!(seen, vec![2]);
            assert_eq!(eng.pending(), 1);
        }
    }

    #[test]
    fn run_until_leaves_future_events() {
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<u8> = Engine::with_agenda(kind);
            eng.schedule_at(Ticks(1), 1);
            eng.schedule_at(Ticks(100), 2);
            let mut seen = Vec::new();
            eng.run_until(Ticks(50), |_, _, p| seen.push(p));
            assert_eq!(seen, vec![1]);
            assert_eq!(eng.pending(), 1);
            assert_eq!(eng.now(), Ticks(1));
        }
    }

    #[test]
    fn schedule_behind_a_peeked_cursor_still_fires_in_order() {
        // run_until's peek may advance the wheel cursor past the engine
        // clock; a later schedule between the two must still fire first
        // (the wheel's fallback path).
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<u8> = Engine::with_agenda(kind);
            eng.schedule_at(Ticks(10), 1);
            eng.schedule_at(Ticks(1000), 3);
            let mut seen = Vec::new();
            eng.run_until(Ticks(500), |_, _, p| seen.push(p));
            assert_eq!(seen, vec![1]);
            assert_eq!(eng.now(), Ticks(10));
            // Behind the peeked-at 1000 tick, ahead of the clock.
            eng.schedule_at(Ticks(200), 2);
            eng.run(|_, _, p| seen.push(p));
            assert_eq!(seen, vec![1, 2, 3], "{kind:?}");
        }
    }

    #[test]
    fn stats_conserve_scheduled_events() {
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let mut eng: Engine<u8> = Engine::with_agenda(kind);
            let a = eng.schedule_at(Ticks(1), 1);
            eng.schedule_at(Ticks(2), 2);
            eng.schedule_at(Ticks(9), 3);
            assert!(eng.cancel(a));
            assert!(!eng.cancel(a), "double-cancel must not double-count");
            eng.run_until(Ticks(5), |_, _, _| {});
            let s = eng.stats();
            assert_eq!(s.scheduled, 3);
            assert_eq!(s.cancelled, 1);
            assert_eq!(s.fired, 1);
            assert_eq!(s.peak_agenda, 3);
            assert_eq!(
                s.scheduled,
                s.fired + s.cancelled + eng.pending() as u64,
                "conservation: every scheduled event is fired, cancelled or pending"
            );
        }
    }

    #[test]
    fn engine_stats_serialization_omits_wheel_counters() {
        let mut eng: Engine<u8> = Engine::with_agenda(AgendaKind::Wheel);
        eng.schedule_at(Ticks(64 * 64 + 5), 1); // forces a cascade later
        eng.run(|_, _, _| {});
        let s = eng.stats();
        assert!(s.wheel.cascades > 0, "counters populated in memory");
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            !json.contains("wheel") && !json.contains("cascades"),
            "backend counters must not reach artifacts: {json}"
        );
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.wheel, WheelStats::default());
        assert_eq!(back.scheduled, s.scheduled);
    }

    #[test]
    fn cancel_heavy_agenda_stays_bounded() {
        // The unbounded-growth regression: schedule/cancel churn with a
        // small live population. Before compaction the store kept every
        // cancelled entry until its (far-future) timestamp surfaced —
        // 40 000 cancellations meant a 40 000-entry agenda. Now the
        // agenda length must stay within ~2× the live count, on both
        // backends.
        for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
            let live_target = 100usize;
            let mut eng: Engine<u64> = Engine::with_agenda(kind);
            let mut ids = std::collections::VecDeque::new();
            for i in 0..live_target as u64 {
                ids.push_back(eng.schedule_at(Ticks(1_000_000 + i), i));
            }
            let mut cancels = 0u64;
            for i in 0..40_000u64 {
                let id = ids.pop_front().expect("live population maintained");
                assert!(eng.cancel(id));
                cancels += 1;
                ids.push_back(eng.schedule_at(Ticks(2_000_000 + i), i));
                assert!(
                    eng.agenda_len() <= 2 * live_target + COMPACT_FLOOR,
                    "agenda {} after {} cancels",
                    eng.agenda_len(),
                    cancels
                );
            }
            assert_eq!(cancels, 40_000);
            let s = eng.stats();
            assert!(s.compactions > 0, "churn at this scale must compact");
            assert!(
                s.peak_agenda <= (2 * live_target + COMPACT_FLOOR) as u64,
                "peak agenda {}",
                s.peak_agenda
            );
            assert_eq!(eng.pending(), live_target);
            assert_eq!(s.scheduled, s.fired + s.cancelled + eng.pending() as u64);
            // The survivors still fire in order.
            let mut fired = 0usize;
            eng.run(|_, _, _| fired += 1);
            assert_eq!(fired, live_target);
        }
    }

    #[test]
    fn freeze_thaw_preserves_order_stats_and_clock_across_backends() {
        // Run half the agenda, freeze, thaw under every backend pairing,
        // and check the tail fires identically (order, clock, stats).
        for src in [AgendaKind::Heap, AgendaKind::Wheel] {
            for dst in [AgendaKind::Heap, AgendaKind::Wheel] {
                let mut reference: Engine<u32> = Engine::with_agenda(AgendaKind::Heap);
                let mut eng: Engine<u32> = Engine::with_agenda(src);
                for e in [&mut reference, &mut eng] {
                    e.schedule_at(Ticks(5), 0);
                    e.schedule_at(Ticks(1), 1);
                    e.schedule_at(Ticks(5), 2); // same tick as 0, later seq
                    e.schedule_at(Ticks(9), 3);
                    let x = e.schedule_at(Ticks(7), 4);
                    assert!(e.cancel(x));
                    let _ = e.next(); // fires 1 at tick 1
                }
                let frozen = eng.freeze();
                assert_eq!(frozen.now, Ticks(1));
                assert_eq!(frozen.entries.len(), 3, "live entries only");
                let mut thawed = Engine::thaw(frozen, dst);
                assert_eq!(thawed.pending(), 3);
                assert_eq!(thawed.now(), Ticks(1));
                // Tail replay matches the uninterrupted reference.
                let mut a = Vec::new();
                let mut b = Vec::new();
                reference.run(|_, at, p| a.push((at.0, p)));
                thawed.run(|_, at, p| b.push((at.0, p)));
                assert_eq!(a, b, "{src:?} -> {dst:?}");
                let (rs, ts) = (reference.stats(), thawed.stats());
                assert_eq!(
                    (rs.scheduled, rs.fired, rs.cancelled),
                    (ts.scheduled, ts.fired, ts.cancelled)
                );
                assert_eq!(reference.now(), thawed.now());
                // The thawed engine keeps scheduling with fresh seqs.
                thawed.schedule_at(thawed.now(), 9);
                assert_eq!(thawed.pending(), 1);
            }
        }
    }

    #[test]
    fn freeze_is_non_destructive() {
        let mut eng: Engine<u8> = Engine::with_agenda(AgendaKind::Wheel);
        eng.schedule_at(Ticks(3), 1);
        eng.schedule_at(Ticks(1), 2);
        let frozen = eng.freeze();
        assert_eq!(frozen.entries.len(), 2);
        // The engine itself is untouched by the freeze.
        let mut seen = Vec::new();
        eng.run(|_, _, p| seen.push(p));
        assert_eq!(seen, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_at(Ticks(5), ());
        let _ = eng.next();
        eng.schedule_at(Ticks(3), ());
    }

    proptest! {
        /// Events always replay in non-decreasing time order with FIFO
        /// tie-breaking, whatever the insertion order and backend.
        #[test]
        fn replay_order_invariant(times in proptest::collection::vec(0u64..1000, 1..200)) {
            for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
                let mut eng: Engine<usize> = Engine::with_agenda(kind);
                for (i, &t) in times.iter().enumerate() {
                    eng.schedule_at(Ticks(t), i);
                }
                let mut fired: Vec<(u64, usize)> = Vec::new();
                eng.run(|_, at, i| fired.push((at.0, i)));
                prop_assert_eq!(fired.len(), times.len());
                for w in fired.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0);
                    if w[0].0 == w[1].0 {
                        // FIFO within a tick: insertion (payload) order.
                        prop_assert!(w[0].1 < w[1].1);
                    }
                }
            }
        }

        /// Cancelling an arbitrary subset removes exactly that subset.
        #[test]
        fn cancellation_subset(times in proptest::collection::vec(0u64..100, 1..50), mask in proptest::collection::vec(any::<bool>(), 50)) {
            for kind in [AgendaKind::Heap, AgendaKind::Wheel] {
                let mut eng: Engine<usize> = Engine::with_agenda(kind);
                let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| eng.schedule_at(Ticks(t), i)).collect();
                let mut expect: Vec<usize> = Vec::new();
                for (i, id) in ids.iter().enumerate() {
                    if mask[i % mask.len()] {
                        eng.cancel(*id);
                    } else {
                        expect.push(i);
                    }
                }
                let mut fired = Vec::new();
                eng.run(|_, _, i| fired.push(i));
                fired.sort_unstable();
                expect.sort_unstable();
                prop_assert_eq!(fired, expect);
            }
        }

        /// Conservation under arbitrary interleavings of schedule, cancel
        /// (including bogus and repeated ids) and partial draining:
        /// `scheduled == fired + cancelled + pending`, with the agenda
        /// compacting rather than accumulating stale entries — on both
        /// backends, which must stay in lockstep throughout.
        #[test]
        fn conservation_under_cancel_heavy_churn(
            ops in proptest::collection::vec(0u64..5000, 1..400),
        ) {
            let mut heap: Engine<u64> = Engine::with_agenda(AgendaKind::Heap);
            let mut wheel: Engine<u64> = Engine::with_agenda(AgendaKind::Wheel);
            let mut ids: Vec<(EventId, EventId)> = Vec::new();
            let mut fired = 0u64;
            for &raw in &ops {
                let (op, x) = (raw % 10, raw / 10);
                match op {
                    // Weight cancels heavily (ops 0..=5): the regression
                    // workload cancels most of what it schedules.
                    0..=5 => {
                        if !ids.is_empty() {
                            let (h, w) = ids[x as usize % ids.len()];
                            // May be stale: must be a no-op then.
                            prop_assert_eq!(heap.cancel(h), wheel.cancel(w));
                        }
                    }
                    // Three schedule flavours spanning the wheel's whole
                    // geometry: near (level 0-2), mid (level 3-4), and
                    // past the 2^36-tick span (the overflow queue).
                    6 | 7 => {
                        ids.push((
                            heap.schedule_at(Ticks(heap.now().0 + x), x),
                            wheel.schedule_at(Ticks(wheel.now().0 + x), x),
                        ));
                    }
                    8 => {
                        let delta = if x % 2 == 0 {
                            x << 13
                        } else {
                            (1u64 << 36) + (x << 3)
                        };
                        ids.push((
                            heap.schedule_at(Ticks(heap.now().0 + delta), x),
                            wheel.schedule_at(Ticks(wheel.now().0 + delta), x),
                        ));
                    }
                    _ => {
                        let (a, b) = (heap.next(), wheel.next());
                        prop_assert_eq!(
                            a.as_ref().map(|(t, p)| (*t, *p)),
                            b.as_ref().map(|(t, p)| (*t, *p)),
                            "backends diverged on pop"
                        );
                        if a.is_some() {
                            fired += 1;
                        }
                    }
                }
                for eng in [&heap, &wheel] {
                    let s = eng.stats();
                    prop_assert_eq!(
                        s.scheduled,
                        s.fired + s.cancelled + eng.pending() as u64,
                        "conservation violated"
                    );
                    prop_assert_eq!(s.fired, fired);
                    prop_assert!(
                        eng.agenda_len() <= 2 * eng.pending() + COMPACT_FLOOR,
                        "agenda {} vs live {}",
                        eng.agenda_len(),
                        eng.pending()
                    );
                }
            }
            // Draining fires exactly the still-pending events.
            let before = heap.pending();
            let mut drained = 0usize;
            heap.run(|_, _, _| drained += 1);
            prop_assert_eq!(drained, before);
            prop_assert_eq!(heap.pending(), 0);
            let s = heap.stats();
            prop_assert_eq!(s.scheduled, s.fired + s.cancelled);
        }
    }
}
