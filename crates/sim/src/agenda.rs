//! Event-store backends for the engine: the [`Agenda`] trait, the
//! classic binary-heap backend, and a hierarchical timing wheel.
//!
//! Every run path (`SystemSim::execute`, `ControlledSim::execute`, the
//! recovery supervisor) uses the heap. The wheel stays reachable through
//! [`crate::engine::Engine::with_agenda`] and `SystemSim::run_shard`, so
//! the engine benchmarks and the cross-backend tests can keep comparing
//! the two.
//!
//! The engine's hot loop is `push`/`pop` on a priority queue keyed by
//! `(tick, seq)`. The paper's workloads are *near-periodic* — millions of
//! `Finish` events all landing one video-length after their `Arrive` —
//! which is exactly the distribution hierarchical timing wheels were
//! designed for (Varghese & Lauck's hashed/hierarchical wheels): O(1)
//! insert into a bucket keyed by the tick delta, O(1) next-bucket lookup
//! through per-level occupancy bitmasks, and a bounded number of cascades
//! per event instead of O(log n) sift per operation.
//!
//! ## Division of labour
//!
//! A backend is a **pure priority queue**: it stores [`AgendaEntry`]
//! values and yields them in exactly `(at, seq)` order. Everything else —
//! slot liveness, generation checks, lazy cancellation, stale/live
//! accounting and compaction policy — stays in [`crate::engine::Engine`].
//! That split is what makes backend choice invisible: both backends
//! surface the *same* entries (stale ones included) in the *same* order,
//! so every downstream float op, metric event and compaction trigger is
//! bitwise identical whichever backend runs. The
//! `heap_wheel_equivalence` proptests pin this.
//!
//! ## The wheel
//!
//! [`WheelAgenda`] keeps [`LEVELS`] levels of 64 buckets. A level-`k`
//! bucket spans `64^k` ticks; an entry with delta `d = at - cursor` lands
//! on level `⌊log64 d⌋` in the bucket `(at >> 6k) & 63`. Advancing time
//! means jumping the cursor straight to the next occupied bucket (found
//! by `trailing_zeros` on the level bitmask), **cascading** higher-level
//! buckets down as their range start is reached, and draining level-0
//! buckets — whose entries all share one tick — into a FIFO sorted by
//! `seq`. Entries further out than `64^LEVELS` ticks wait in an
//! **overflow** heap and are promoted into the wheel when the cursor
//! approaches; entries scheduled *behind* the cursor (possible because
//! the cursor may run ahead of the engine clock after a peek) go to a
//! small **fallback** heap that is consulted at every pop. See DESIGN.md
//! §12 for the full determinism argument.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use vod_units::Ticks;

use crate::engine::EventId;

/// Which [`Agenda`] backend an [`crate::engine::Engine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgendaKind {
    /// The slab-backed binary heap: O(log n) per operation, no
    /// quantization assumptions. The safe default.
    #[default]
    Heap,
    /// The hierarchical timing wheel: O(1) insert and next-bucket
    /// lookup, amortized O(levels) per event. Fire order is bitwise
    /// identical to [`AgendaKind::Heap`].
    Wheel,
}

impl AgendaKind {
    /// The backend's name, as benchmark labels print it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Heap => "heap",
            Self::Wheel => "wheel",
        }
    }
}

/// One scheduled event as the backend stores it: the firing tick, the
/// global FIFO tie-break sequence, the engine's liveness handle, and the
/// payload. Backends order strictly by `(at, seq)` and never interpret
/// `id` — liveness is the engine's business.
#[derive(Debug)]
pub struct AgendaEntry<E> {
    /// Absolute firing tick.
    pub at: Ticks,
    /// Globally monotonic schedule sequence (FIFO tie-break).
    pub seq: u64,
    /// The engine's slab handle for liveness checks.
    pub id: EventId,
    /// The event payload.
    pub payload: E,
}

/// A pluggable event store: a priority queue of [`AgendaEntry`] in
/// strict `(at, seq)` order.
///
/// Implementations must yield *every* pushed entry (the engine filters
/// cancelled ones itself) and must be deterministic: the pop sequence is
/// a pure function of the push/pop/retain history. `peek` takes `&mut
/// self` because the wheel advances its cursor to locate the next
/// occupied bucket.
pub trait Agenda<E> {
    /// Insert an entry. `entry.seq` is strictly greater than every
    /// previously pushed seq.
    fn push(&mut self, entry: AgendaEntry<E>);

    /// Remove and return the `(at, seq)`-minimal entry.
    fn pop(&mut self) -> Option<AgendaEntry<E>>;

    /// The firing tick and id of the `(at, seq)`-minimal entry.
    fn peek(&mut self) -> Option<(Ticks, EventId)>;

    /// Number of stored entries (live and stale alike).
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry for which `keep` returns `false`, preserving the
    /// relative order of survivors. The engine's compaction path.
    fn retain(&mut self, keep: &mut dyn FnMut(&AgendaEntry<E>) -> bool);

    /// Backend-specific counters; zero for backends without them.
    fn wheel_stats(&self) -> WheelStats {
        WheelStats::default()
    }
}

/// Counters specific to the timing-wheel backend.
///
/// Carried inside [`crate::engine::EngineStats`] but deliberately *not*
/// serialized with it: artifacts must stay byte-identical across
/// backends, and these counters are exactly the bytes that would differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Higher-level buckets redistributed to lower levels as the cursor
    /// reached their range start.
    pub cascades: u64,
    /// Entries promoted from the overflow heap into the wheel proper.
    pub overflow_promotions: u64,
    /// High-water mark of any single bucket's occupancy.
    pub peak_bucket: u64,
}

// ---------------------------------------------------------------------------
// MinQueue: the workspace's one min-heap idiom.
// ---------------------------------------------------------------------------

/// A min-heap: [`BinaryHeap`] with the `Reverse` inversion applied once,
/// here, instead of hand-rolled at every use site (the engine's agenda
/// backends, the sharded peak-active sweep, the batching server's busy
/// queue).
#[derive(Debug, Clone)]
pub struct MinQueue<T: Ord>(BinaryHeap<Reverse<T>>);

impl<T: Ord> Default for MinQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> MinQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self(BinaryHeap::new())
    }

    /// Insert a value.
    pub fn push(&mut self, value: T) {
        self.0.push(Reverse(value));
    }

    /// Remove and return the minimum.
    pub fn pop(&mut self) -> Option<T> {
        self.0.pop().map(|Reverse(v)| v)
    }

    /// The minimum, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.0.peek().map(|Reverse(v)| v)
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Keep only the values for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.0.retain(|Reverse(v)| keep(v));
    }
}

/// An [`AgendaEntry`] ordered by `(at, seq)`, for heap storage. `seq` is
/// globally unique, so the order is total and payloads never compare.
struct OrderedEntry<E>(AgendaEntry<E>);

impl<E> PartialEq for OrderedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl<E> Eq for OrderedEntry<E> {}
impl<E> PartialOrd for OrderedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OrderedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

// ---------------------------------------------------------------------------
// HeapAgenda
// ---------------------------------------------------------------------------

/// The classic backend: a [`MinQueue`] over `(at, seq)`.
pub struct HeapAgenda<E> {
    heap: MinQueue<OrderedEntry<E>>,
}

impl<E> Default for HeapAgenda<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapAgenda<E> {
    /// An empty heap agenda.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: MinQueue::new(),
        }
    }
}

impl<E> Agenda<E> for HeapAgenda<E> {
    fn push(&mut self, entry: AgendaEntry<E>) {
        self.heap.push(OrderedEntry(entry));
    }

    fn pop(&mut self) -> Option<AgendaEntry<E>> {
        self.heap.pop().map(|e| e.0)
    }

    fn peek(&mut self) -> Option<(Ticks, EventId)> {
        self.heap.peek().map(|e| (e.0.at, e.0.id))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn retain(&mut self, keep: &mut dyn FnMut(&AgendaEntry<E>) -> bool) {
        self.heap.retain(|e| keep(&e.0));
    }
}

// ---------------------------------------------------------------------------
// WheelAgenda
// ---------------------------------------------------------------------------

/// Bits per wheel level: 64 buckets each.
const BITS: u32 = 6;
/// Buckets per level.
const SLOTS: u64 = 1 << BITS;
/// Number of hierarchical levels. Level `k` buckets span `64^k` ticks,
/// so the wheel as a whole reaches `64^LEVELS` ticks (≈ 6.9 × 10¹⁰; at
/// the default 10 ms tick, over two decades of simulated time) before
/// the overflow heap takes over.
pub const LEVELS: usize = 6;
/// Deltas at or beyond this many ticks wait in the overflow heap.
const SPAN: u64 = 1 << (BITS * LEVELS as u32);

/// The hierarchical timing wheel backend. See the module docs and
/// DESIGN.md §12.
pub struct WheelAgenda<E> {
    /// The wheel's time floor. Never decreases; may run *ahead* of the
    /// engine clock (a peek advances it to the next occupied bucket).
    cursor: u64,
    /// Total stored entries across all structures.
    len: usize,
    /// `levels[k][idx]`: the bucket vectors. Entries within a bucket are
    /// in insertion order, *not* seq order (cascades interleave).
    levels: Vec<Vec<Vec<AgendaEntry<E>>>>,
    /// Per-level occupancy bitmasks: bit `i` set iff `levels[k][i]` is
    /// non-empty. Next-bucket search is `trailing_zeros`, not a scan.
    masks: [u64; LEVELS],
    /// The drained level-0 bucket currently being consumed: entries of a
    /// single tick, sorted by `seq`.
    current: VecDeque<AgendaEntry<E>>,
    /// Entries scheduled behind the cursor (engine time ≤ at < cursor).
    /// Rare — only reachable after a peek ran the cursor ahead — and
    /// always strictly earlier than `current`, so pops consult it first.
    fallback: MinQueue<OrderedEntry<E>>,
    /// Entries beyond the wheel's span, promoted as the cursor nears.
    overflow: MinQueue<OrderedEntry<E>>,
    stats: WheelStats,
}

impl<E> Default for WheelAgenda<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelAgenda<E> {
    /// An empty wheel with the cursor at tick zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cursor: 0,
            len: 0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            masks: [0; LEVELS],
            current: VecDeque::new(),
            fallback: MinQueue::new(),
            overflow: MinQueue::new(),
            stats: WheelStats::default(),
        }
    }

    /// Level for a delta: `⌊log64 delta⌋`. Callers guarantee
    /// `delta < SPAN`.
    fn level_of(delta: u64) -> usize {
        if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / BITS) as usize
        }
    }

    /// File `entry` into the wheel (or overflow) relative to the current
    /// cursor. Requires `entry.at >= cursor`.
    fn place(&mut self, entry: AgendaEntry<E>) {
        let at = entry.at.0;
        debug_assert!(at >= self.cursor, "place() behind the cursor");
        let delta = at - self.cursor;
        if delta >= SPAN {
            self.overflow.push(OrderedEntry(entry));
            return;
        }
        let level = Self::level_of(delta);
        let idx = ((at >> (BITS * level as u32)) & (SLOTS - 1)) as usize;
        let bucket = &mut self.levels[level][idx];
        bucket.push(entry);
        self.masks[level] |= 1 << idx;
        self.stats.peak_bucket = self.stats.peak_bucket.max(bucket.len() as u64);
    }

    /// The earliest pending wheel position as `(tick, level, idx)`:
    /// level 0 positions are exact due ticks, higher levels are bucket
    /// range starts (cascade points). Ties prefer the *higher* level so
    /// a bucket cascades before the co-located level-0 bucket drains.
    fn next_wheel_position(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for level in (0..LEVELS).rev() {
            let mask = self.masks[level];
            if mask == 0 {
                continue;
            }
            let shift = BITS * level as u32;
            let cur = self.cursor >> shift;
            let rot = cur & !(SLOTS - 1);
            let pos = (cur & (SLOTS - 1)) as u32;
            // Partition the occupied buckets into rotations. The
            // cursor's own bucket is the subtle one — it can hold
            // either rotation, and cursor alignment decides which:
            //  * cursor exactly at the bucket's range start (always
            //    true at level 0; at level > 0 only via an
            //    overflow-tie promotion landing on a pending cascade
            //    point): *current*-rotation entries, due/cascading at
            //    the cursor itself — next-rotation entries would need
            //    a delta of a full 64^(level+1) and live a level up.
            //  * cursor strictly inside the bucket's range:
            //    *next*-rotation entries only — the cursor can only
            //    enter a range through its start, which cascades the
            //    current rotation out, and a later insert below the
            //    range end would have a sub-64^level delta and land
            //    on a lower level. (An unaligned cursor plus a delta
            //    just under 64^(level+1) lands exactly 64 units
            //    ahead: same index, next rotation.)
            let at_pos = mask & (1u64 << pos);
            let strictly_ahead = mask & !((1u64 << pos) - 1) & !(1u64 << pos);
            let (idx, unit) = if at_pos != 0 && self.cursor == cur << shift {
                (pos, cur)
            } else if strictly_ahead != 0 {
                let idx = strictly_ahead.trailing_zeros();
                (idx, rot + u64::from(idx))
            } else {
                // Wrap: the earliest occupied bucket of the next
                // rotation — bits below `pos`, or `pos` itself behind
                // an unaligned cursor.
                let idx = mask.trailing_zeros();
                (idx, rot + SLOTS + u64::from(idx))
            };
            let tick = unit << shift;
            debug_assert!(tick >= self.cursor, "stale bucket behind the cursor");
            // Strict `<` with high-to-low iteration: on equal ticks the
            // higher level wins and cascades first.
            if best.is_none_or(|b| tick < b.0) {
                best = Some((tick, level, idx as usize));
            }
        }
        best
    }

    /// Advance the cursor until `current` holds the next due tick's
    /// entries (sorted by seq) or the wheel side is exhausted. Cascades
    /// higher-level buckets and promotes overflow entries on the way.
    fn resolve(&mut self) {
        while self.current.is_empty() {
            let wheel = self.next_wheel_position();
            let ov = self.overflow.peek().map(|e| e.0.at.0);
            match (wheel, ov) {
                (None, None) => return,
                // Overflow first on ties: its entries may land in the
                // very bucket about to drain.
                (w, Some(o)) if w.is_none_or(|(t, _, _)| o <= t) => {
                    debug_assert!(o >= self.cursor, "overflow behind the cursor");
                    self.cursor = o;
                    while let Some(e) = self.overflow.peek() {
                        if e.0.at.0 - self.cursor >= SPAN {
                            break;
                        }
                        let e = self.overflow.pop().expect("peeked entry exists").0;
                        self.place(e);
                        self.stats.overflow_promotions += 1;
                    }
                }
                (Some((tick, level, idx)), _) => {
                    debug_assert!(tick >= self.cursor, "wheel went backwards");
                    self.cursor = tick;
                    self.masks[level] &= !(1 << idx);
                    let bucket = std::mem::take(&mut self.levels[level][idx]);
                    if level == 0 {
                        // One tick per level-0 bucket; seq-sort restores
                        // FIFO across direct inserts and cascades.
                        let mut bucket = bucket;
                        bucket.sort_unstable_by_key(|e| e.seq);
                        self.current.extend(bucket);
                    } else {
                        self.stats.cascades += 1;
                        for e in bucket {
                            self.place(e);
                        }
                    }
                }
                (None, Some(_)) => unreachable!("covered by the overflow arm"),
            }
        }
    }

    /// Whether the next pop comes from the fallback heap rather than the
    /// resolved `current` queue. Requires `resolve()` to have run.
    fn fallback_first(&self) -> Option<bool> {
        match (self.current.front(), self.fallback.peek()) {
            (None, None) => None,
            (None, Some(_)) => Some(true),
            (Some(_), None) => Some(false),
            (Some(c), Some(f)) => Some((f.0.at, f.0.seq) < (c.at, c.seq)),
        }
    }
}

impl<E> Agenda<E> for WheelAgenda<E> {
    fn push(&mut self, entry: AgendaEntry<E>) {
        self.len += 1;
        if entry.at.0 < self.cursor {
            self.fallback.push(OrderedEntry(entry));
        } else {
            self.place(entry);
        }
    }

    fn pop(&mut self) -> Option<AgendaEntry<E>> {
        self.resolve();
        let from_fallback = self.fallback_first()?;
        self.len -= 1;
        Some(if from_fallback {
            self.fallback.pop().expect("peeked entry exists").0
        } else {
            self.current.pop_front().expect("peeked entry exists")
        })
    }

    fn peek(&mut self) -> Option<(Ticks, EventId)> {
        self.resolve();
        Some(if self.fallback_first()? {
            let e = &self.fallback.peek().expect("peeked entry exists").0;
            (e.at, e.id)
        } else {
            let e = self.current.front().expect("peeked entry exists");
            (e.at, e.id)
        })
    }

    fn len(&self) -> usize {
        self.len
    }

    fn retain(&mut self, keep: &mut dyn FnMut(&AgendaEntry<E>) -> bool) {
        let mut len = 0usize;
        for level in 0..LEVELS {
            let mut mask = 0u64;
            for idx in 0..SLOTS as usize {
                let bucket = &mut self.levels[level][idx];
                bucket.retain(|e| keep(e));
                if !bucket.is_empty() {
                    mask |= 1 << idx;
                    len += bucket.len();
                }
            }
            self.masks[level] = mask;
        }
        self.current.retain(|e| keep(e));
        len += self.current.len();
        self.fallback.retain(|e| keep(&e.0));
        len += self.fallback.len();
        self.overflow.retain(|e| keep(&e.0));
        len += self.overflow.len();
        self.len = len;
    }

    fn wheel_stats(&self) -> WheelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, seq: u64) -> AgendaEntry<u64> {
        AgendaEntry {
            at: Ticks(at),
            seq,
            id: EventId::new(seq as u32, 0),
            payload: seq,
        }
    }

    fn drain<A: Agenda<u64>>(a: &mut A) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = a.pop() {
            out.push((e.at.0, e.seq));
        }
        out
    }

    #[test]
    fn min_queue_pops_in_order() {
        let mut q = MinQueue::new();
        for v in [5u64, 1, 9, 3] {
            q.push(v);
        }
        assert_eq!(q.peek(), Some(&1));
        q.retain(|&v| v != 3);
        assert_eq!(q.len(), 3);
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn level_of_matches_log64() {
        assert_eq!(WheelAgenda::<()>::level_of(0), 0);
        assert_eq!(WheelAgenda::<()>::level_of(63), 0);
        assert_eq!(WheelAgenda::<()>::level_of(64), 1);
        assert_eq!(WheelAgenda::<()>::level_of(64 * 64 - 1), 1);
        assert_eq!(WheelAgenda::<()>::level_of(64 * 64), 2);
        assert_eq!(WheelAgenda::<()>::level_of(SPAN - 1), LEVELS - 1);
    }

    #[test]
    fn wheel_orders_like_heap_on_a_mixed_schedule() {
        // Deltas spread across every level, plus same-tick ties and
        // far-future overflow entries.
        let ats = [
            0u64,
            1,
            1,
            63,
            64,
            65,
            4095,
            4096,
            1 << 18,
            (1 << 18) + 1,
            SPAN - 1,
            SPAN,
            SPAN + 12345,
            7,
            7,
        ];
        let mut heap = HeapAgenda::new();
        let mut wheel = WheelAgenda::new();
        for (seq, &at) in ats.iter().enumerate() {
            heap.push(entry(at, seq as u64));
            wheel.push(entry(at, seq as u64));
        }
        assert_eq!(heap.len(), wheel.len());
        assert_eq!(drain(&mut heap), drain(&mut wheel));
        assert!(wheel.wheel_stats().overflow_promotions >= 2);
    }

    #[test]
    fn wheel_counts_cascades_and_peak_bucket() {
        let mut wheel = WheelAgenda::new();
        // Three entries one level-2 bucket, one nearby: draining the far
        // ones must cascade through at least one level.
        for (seq, at) in [
            (0u64, 5u64),
            (1, 64 * 64 + 3),
            (2, 64 * 64 + 3),
            (3, 64 * 64 + 9),
        ] {
            wheel.push(entry(at, seq));
        }
        let fired = drain(&mut wheel);
        assert_eq!(
            fired,
            vec![(5, 0), (64 * 64 + 3, 1), (64 * 64 + 3, 2), (64 * 64 + 9, 3)]
        );
        let s = wheel.wheel_stats();
        assert!(s.cascades >= 1, "level-2 bucket must cascade");
        assert!(s.peak_bucket >= 2, "co-bucketed entries counted");
    }

    #[test]
    fn insert_behind_cursor_goes_to_fallback_and_pops_first() {
        let mut wheel = WheelAgenda::new();
        wheel.push(entry(100, 0));
        // Peek runs the cursor to 100.
        assert_eq!(wheel.peek(), Some((Ticks(100), EventId::new(0, 0))));
        // An earlier insert (legal: the engine clock is still behind)
        // must still pop first.
        wheel.push(entry(40, 1));
        wheel.push(entry(100, 2));
        assert_eq!(drain(&mut wheel), vec![(40, 1), (100, 0), (100, 2)]);
    }

    #[test]
    fn unaligned_cursor_files_boundary_delta_into_next_rotation() {
        // With the cursor mid-bucket (127: level-1 pos 1, unaligned), a
        // delta just under 64^2 lands on the *same* level-1 index one
        // rotation ahead (4222 >> 6 = 65 ≡ 1 mod 64). Mistaking it for
        // the current rotation would run the wheel backwards.
        let mut wheel = WheelAgenda::new();
        wheel.push(entry(127, 0));
        assert_eq!(drain(&mut wheel), vec![(127, 0)]);
        wheel.push(entry(127 + 4095, 1));
        assert_eq!(drain(&mut wheel), vec![(127 + 4095, 1)]);
    }

    #[test]
    fn overflow_tie_promotion_still_cascades_the_cursor_bucket() {
        // An overflow promotion can land the cursor *exactly* on a
        // pending cascade point: B (overflow, at = SPAN) ties with A's
        // level-1 bucket whose range starts at SPAN. The aligned cursor
        // bucket holds current-rotation entries and must cascade now,
        // not a rotation later.
        let mut wheel = WheelAgenda::new();
        wheel.push(entry(SPAN - 64, 0)); // wheel, level 5
        wheel.push(entry(SPAN, 1)); // overflow (delta == SPAN)
        assert_eq!(wheel.pop().map(|e| (e.at.0, e.seq)), Some((SPAN - 64, 0)));
        // Cursor now sits at SPAN - 64; delta 96 puts A at level 1 in
        // the bucket spanning [SPAN, SPAN + 64).
        wheel.push(entry(SPAN + 32, 2));
        assert_eq!(drain(&mut wheel), vec![(SPAN, 1), (SPAN + 32, 2)]);
        assert_eq!(wheel.wheel_stats().overflow_promotions, 1);
    }

    #[test]
    fn retain_preserves_order_and_len() {
        let mut wheel = WheelAgenda::new();
        for (seq, at) in [(0u64, 3u64), (1, 3), (2, 70), (3, SPAN + 5), (4, 9)] {
            wheel.push(entry(at, seq));
        }
        // Drop the odd seqs wherever they live (bucket, overflow).
        wheel.retain(&mut |e: &AgendaEntry<u64>| e.seq % 2 == 0);
        assert_eq!(wheel.len(), 3);
        assert_eq!(drain(&mut wheel), vec![(3, 0), (9, 4), (70, 2)]);
    }
}
