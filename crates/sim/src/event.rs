//! Cancellable discrete-event queue backed by a hierarchical timer wheel.
//!
//! # Hot-path design
//!
//! `schedule`/`pop`/`peek` are the innermost loop of every simulation run.
//! Tickless profiling showed 83–88% of queued events are periodic timers
//! (`HvTick`/`HvAccounting`/guest CFS ticks) that previously paid an
//! O(log n) binary-heap sift on every schedule and pop. The queue is now a
//! **hierarchical timer wheel** (kernel `timer.c` style) that makes the
//! dominant event class O(1):
//!
//! * Sim time is bucketed into **ticks** of `2^TICK_SHIFT` ns (65.5 µs).
//!   Sub-tick ordering is preserved — ticks choose the *bucket*, the full
//!   `(SimTime, seq)` key still decides pop order within it.
//! * Four **levels × 256 slots** cover 32 bits of tick (~8.9 years of
//!   lookahead from the wheel cursor); level *l* slot *s* holds events
//!   whose tick agrees with the cursor on all bits above `8·(l+1)` and has
//!   `s` in bit field `[8·l, 8·(l+1))`. A per-level **occupancy bitmap**
//!   (four `u64` words) finds the next non-empty slot with a handful of
//!   `trailing_zeros` scans.
//! * Events beyond the top level's range go to an unordered **overflow
//!   list**, promoted wholesale when the wheel drains down to them.
//! * A sorted **head** vector (descending `(time, seq)`, popped from the
//!   back) holds every event at or before the wheel **cursor**. The head
//!   is non-empty whenever any event is pending, which is what lets
//!   [`EventQueue::peek_time`] / [`EventQueue::peek`] take `&self`.
//!
//! The cursor only ever moves to the tick of the earliest pending event, so
//! a wheel slot is drained at most once per entry and cascading moves each
//! entry strictly downward: `schedule` and `pop` are O(1) amortized. Pop
//! order is **bit-identical** to the previous binary heap — earliest
//! `(time, insertion seq)` first — because every slot drain sorts by the
//! same total key the heap used.
//!
//! # Cancellation by location
//!
//! An [`EventId`] is the event's `(time, seq)` key, and `cancel` removes the
//! entry physically from the one place it can be:
//!
//! * tick at or before the cursor: the head, found by binary search;
//! * otherwise: the bucket `bucket_of(tick, cursor)` (or the overflow
//!   list), found by a scan of that bucket alone.
//!
//! This is exact because every wheel entry sits in `bucket_of(tick, cursor)`
//! for the *current* cursor, not just the cursor it was placed against.
//! `advance` drains the lowest occupied slot of the lowest occupied level
//! *l* and only rewrites cursor bits below `8·(l+1)`. Entries of level *l*
//! and above still differ from the cursor first in the same bit field, so
//! they keep their level and slot. Levels below *l* are empty at that
//! point, and the drained slot's entries are re-placed against the new
//! cursor. Overflow promotion runs only on an empty wheel and leaves in
//! overflow exactly the entries that still differ above bit 32.
//!
//! The simulator itself cancels nothing: `System` filters stale timers with
//! per-timer generations carried in the payload. Cancellation serves the
//! queue micro-benchmarks and library users.

use crate::time::SimTime;

/// Handle to a scheduled event, used for cancellation.
///
/// A handle is the event's firing time plus its insertion sequence number.
/// Sequence numbers are never reused, so a stale handle (its event already
/// popped or cancelled) can never match a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    at: SimTime,
    seq: u64,
}

/// Wheel tick resolution: `2^16` ns = 65.5 µs per tick. One bottom-level
/// rotation then spans ~16.8 ms, so the dominant periodic timers (1 ms
/// guest ticks through the 10 ms `HvTick`) file directly into level 0 and
/// fire without a single cascade; profiling the scenario mix showed the
/// cascade rate, not slot-drain sort width, is what bounds throughput.
/// Sub-tick deadlines cost nothing in fidelity: the full `(SimTime, seq)`
/// key orders events within a bucket, ticks only pick the bucket.
const TICK_SHIFT: u32 = 16;
/// log2 of the slots per level. 8-bit levels are deliberately wider than
/// the classic 6: the simulator's dominant deltas (1 µs guest ticks to
/// 30 ms slice timers) then fit within two levels, so a timer is moved at
/// most twice before it fires — and every move of a cold entry is a cache
/// miss, which is what actually bounds drain throughput.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// `u64` words per level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Levels in the hierarchy; together they cover `LEVELS * LEVEL_BITS` = 32
/// bits of tick (~8.9 years of sim time past the cursor). Anything farther
/// waits in the overflow list.
const LEVELS: usize = 4;
/// Bits of tick the wheel proper can express relative to the cursor.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// The level-major wheel bucket for a tick strictly after `cursor`, or
/// `None` for the overflow list. The level is the 8-bit field holding the
/// highest bit where the tick and the cursor differ, found with a single
/// `leading_zeros`; the slot is the tick's own bits in that field.
#[inline]
fn bucket_of(tick: u64, cursor: u64) -> Option<usize> {
    debug_assert!(tick > cursor, "bucket_of is only defined past the cursor");
    let l = ((63 - (tick ^ cursor).leading_zeros()) / LEVEL_BITS) as usize;
    if l >= LEVELS {
        return None;
    }
    let s = ((tick >> (LEVEL_BITS * l as u32)) & SLOT_MASK) as usize;
    Some(l * SLOTS + s)
}

/// A wheel entry carrying its payload inline. No intrinsic ordering: slot
/// drains sort by the total key `(at, seq)` (`seq` is unique, so ties are
/// FIFO by schedule order, exactly as the old heap broke them).
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// A time-ordered queue of events with stable FIFO tie-breaking and
/// cancellation by handle.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which gives the simulation a deterministic total order — a
/// prerequisite for the reproducibility guarantees in `DESIGN.md`.
///
/// # Example
///
/// ```
/// use irs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(5), 'b');
/// q.schedule(SimTime::from_nanos(1), 'a');
/// q.schedule(SimTime::from_nanos(5), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
///
/// # Snapshots
///
/// `EventQueue<E: Clone>` is `Clone`, and the clone is a *complete* state
/// copy: sequence counter, cursor, occupancy bitmaps, head batch, wheel
/// buckets and overflow list all carry over. A clone is therefore
/// observationally identical to the original under every subsequent
/// operation sequence — pops return the same `(time, seq)` order, new
/// schedules receive the same `EventId`s, and handles issued before the
/// clone remain valid against it. This is the foundation of
/// `System::snapshot()` checkpointing (DESIGN.md §2.7). Handles issued
/// *after* the clone point belong to the timeline that issued them and
/// must not be used against the other copy.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Entries at or before the cursor, sorted by `(at, seq)`
    /// **descending** so the global minimum pops from the back in O(1).
    /// Invariant: non-empty whenever any event is pending.
    head: Vec<Entry<E>>,
    /// `LEVELS * SLOTS` buckets, level-major. Entries here are strictly
    /// after the cursor, each in `bucket_of(tick, cursor)`.
    wheel: Vec<Vec<Entry<E>>>,
    /// One occupancy bit per slot, per level.
    occ: [[u64; WORDS]; LEVELS],
    /// Events more than `2^WHEEL_BITS` ticks past the cursor's window.
    overflow: Vec<Entry<E>>,
    /// Current wheel position, in ticks. Only moves forward, and only to
    /// the tick of the earliest pending event.
    cursor: u64,
    next_seq: u64,
    /// Pending events (head + wheel + overflow).
    len: usize,
    /// Reused buffer for slot drains (avoids an alloc per cascade).
    scratch: Vec<Entry<E>>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            head: Vec::new(),
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [[0; WORDS]; LEVELS],
            overflow: Vec::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Schedules `payload` to fire at instant `at` and returns a handle that
    /// can later be passed to [`cancel`](Self::cancel).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { at, seq, payload };
        if tick_of(at) <= self.cursor {
            // At or before the wheel position: sorted insert into the head.
            // Rare (the cursor trails the minimum), and cheap when it does
            // happen because the head only holds the current tick's worth.
            self.insert_head(entry);
        } else {
            self.place(entry);
            if self.head.is_empty() {
                // The queue held no earlier event; pull the wheel forward so
                // `peek`/`pop` see this one without a mutable settle step.
                self.advance();
            }
        }
        EventId { at, seq }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled. The entry is removed at once (and
    /// its payload dropped) from the head or from the one bucket its tick
    /// maps to — see the module docs for why that bucket is exact.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let t = tick_of(id.at);
        if t <= self.cursor {
            let key = (id.at, id.seq);
            let Ok(i) = self.head.binary_search_by(|e| key.cmp(&(e.at, e.seq))) else {
                return false;
            };
            self.head.remove(i);
        } else {
            let b = bucket_of(t, self.cursor);
            let bucket = match b {
                Some(b) => &mut self.wheel[b],
                None => &mut self.overflow,
            };
            // Search from the back: an arm-then-cancel finds its entry last.
            let Some(i) = bucket.iter().rposition(|e| e.seq == id.seq) else {
                return false;
            };
            debug_assert_eq!(bucket[i].at, id.at);
            // Bucket order is irrelevant: every drain sorts.
            bucket.swap_remove(i);
            if let Some(b) = b.filter(|&b| self.wheel[b].is_empty()) {
                let s = b % SLOTS;
                self.occ[b / SLOTS][s >> 6] &= !(1u64 << (s & 63));
            }
        }
        self.len -= 1;
        if self.head.is_empty() && self.len > 0 {
            self.advance();
        }
        true
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.head.pop()?;
        self.len -= 1;
        if self.head.is_empty() && self.len > 0 {
            self.advance();
        }
        Some((entry.at, entry.payload))
    }

    /// The firing time of the earliest event, without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.last().map(|e| e.at)
    }

    /// The earliest event as `(time, &payload)`, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.head.last().map(|e| (e.at, &e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sorted insert into the descending head. O(log n) search plus the
    /// memmove; only taken for schedules at or before the cursor.
    fn insert_head(&mut self, e: Entry<E>) {
        let key = (e.at, e.seq);
        let i = self.head.partition_point(|x| (x.at, x.seq) > key);
        self.head.insert(i, e);
    }

    /// Files an entry into `bucket_of(tick, cursor)` or the overflow list.
    /// O(1).
    #[inline]
    fn place(&mut self, e: Entry<E>) {
        let t = tick_of(e.at);
        if t <= self.cursor {
            // At or before the wheel position. `bucket_of` is only defined
            // for strictly-future ticks (`t == cursor` underflows the
            // `63 - leading_zeros` shift; `t < cursor` picks a level from
            // bits the cursor has already swept), so such entries belong in
            // the head batch, same as `schedule`'s own at-or-before-cursor
            // path. Both in-tree callers pre-filter this case — `schedule`
            // into `insert_head`, `route` into `scratch` — so this arm is
            // defensive, but it must be correct rather than an assert: an
            // at-cursor tick is a legitimate instant to schedule for.
            self.insert_head(e);
            return;
        }
        match bucket_of(t, self.cursor) {
            Some(b) => {
                let s = b % SLOTS;
                self.occ[b / SLOTS][s >> 6] |= 1 << (s & 63);
                self.wheel[b].push(e);
            }
            None => self.overflow.push(e),
        }
    }

    /// Moves the cursor forward to the earliest pending event and drains
    /// its slot into the head. Precondition: the head is empty and an
    /// event is pending somewhere in the wheel or overflow.
    ///
    /// Each iteration either drains the lowest occupied slot (cascading
    /// upper-level entries strictly downward) or promotes the nearest
    /// overflow window into the wheel, so every entry is touched at most
    /// `LEVELS + 1` times over its life — O(1) amortized.
    fn advance(&mut self) {
        debug_assert!(self.head.is_empty() && self.len > 0);
        while self.head.is_empty() {
            // The lowest occupied slot of the lowest occupied level is the
            // earliest window with pending entries (lower levels sit
            // strictly before higher ones relative to the cursor).
            let mut next = None;
            'scan: for l in 0..LEVELS {
                for w in 0..WORDS {
                    let bits = self.occ[l][w];
                    if bits != 0 {
                        next = Some((l, w * 64 + bits.trailing_zeros() as usize));
                        break 'scan;
                    }
                }
            }
            if let Some((l, s)) = next {
                let s = s as u64;
                let window = LEVEL_BITS * (l as u32 + 1);
                let base = LEVEL_BITS * l as u32;
                self.cursor = ((self.cursor >> window) << window) | (s << base);
                self.occ[l][(s as usize) >> 6] &= !(1u64 << (s & 63));
                let mut drained = std::mem::take(&mut self.wheel[l * SLOTS + s as usize]);
                for e in drained.drain(..) {
                    self.route(e);
                }
                // Hand the (now empty) bucket back so its capacity is
                // recycled next rotation.
                self.wheel[l * SLOTS + s as usize] = drained;
            } else {
                // The wheel proper is empty: promote the nearest overflow
                // window.
                let pending = std::mem::take(&mut self.overflow);
                let w = pending
                    .iter()
                    .map(|e| tick_of(e.at) >> WHEEL_BITS)
                    .min()
                    .expect("len says an event is pending");
                self.cursor = w << WHEEL_BITS;
                for e in pending {
                    if tick_of(e.at) >> WHEEL_BITS == w {
                        self.route(e);
                    } else {
                        self.overflow.push(e);
                    }
                }
            }
            self.flush_scratch();
        }
    }

    /// Re-files one drained entry: entries at or before the (just
    /// advanced) cursor collect in `scratch` for a batch head merge, later
    /// entries cascade into a strictly lower level.
    #[inline]
    fn route(&mut self, e: Entry<E>) {
        if tick_of(e.at) <= self.cursor {
            self.scratch.push(e);
        } else {
            self.place(e);
        }
    }

    /// Sorts the routed batch by the global key and installs it as the new
    /// head. One O(k log k) sort per drained slot replaces k heap sifts.
    fn flush_scratch(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        debug_assert!(self.head.is_empty(), "batch feed requires an empty head");
        self.scratch
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        self.head.append(&mut self.scratch);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_nanos(), p))).collect()
    }

    /// Nanosecond value whose tick (ns >> TICK_SHIFT) is exactly `t`.
    fn tick_ns(t: u64) -> u64 {
        t << TICK_SHIFT
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for v in 0..100u32 {
            q.schedule(SimTime::from_nanos(42), v);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(drain(&mut q), vec![(2, 2)]);
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 7);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 7)));
        assert!(!q.cancel(a));
    }

    #[test]
    fn stale_handle_does_not_kill_successor() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.cancel(a);
        // Sequence numbers are never reused, so the stale handle must not
        // affect a later event.
        let b = q.schedule(SimTime::from_nanos(2), 2);
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
        assert!(!q.cancel(b));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(5), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_is_shared_and_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(9), 'z');
        q.schedule(SimTime::from_nanos(3), 'a');
        let r = &q; // peek must work through a shared reference
        assert_eq!(r.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(r.peek(), Some((SimTime::from_nanos(3), &'a')));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 'a')));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.pop();
        let b = q.schedule(SimTime::from_nanos(1), 1);
        assert_ne!(a, b);
    }

    // ---- wheel-specific coverage ------------------------------------

    #[test]
    fn cascade_boundaries_preserve_order() {
        // One event on each side of every level boundary (2^8, 2^16, 2^24,
        // 2^32 ticks), plus ties straddling a slot edge: order must be the
        // plain (time, seq) total order regardless of which level each
        // entry started in.
        let mut q = EventQueue::new();
        let ticks = [
            (1 << 8) - 1,
            1 << 8,
            (1 << 8) + 1,
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            (1u64 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
        ];
        // Schedule in reverse so the wheel can't rely on arrival order.
        for (i, &t) in ticks.iter().enumerate().rev() {
            q.schedule(SimTime::from_nanos(tick_ns(t)), i as u32);
        }
        let got = drain(&mut q);
        let want: Vec<(u64, u32)> = ticks
            .iter()
            .enumerate()
            .map(|(i, &t)| (tick_ns(t), i as u32))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_overflow_promotes() {
        // Events several full wheel ranges out must park in overflow and
        // come back in order, including two distinct far windows.
        let mut q = EventQueue::new();
        let far = tick_ns(3 << WHEEL_BITS);
        let farther = tick_ns(7 << WHEEL_BITS);
        q.schedule(SimTime::from_nanos(farther), 3);
        q.schedule(SimTime::from_nanos(far + 5), 2);
        q.schedule(SimTime::from_nanos(far), 1);
        q.schedule(SimTime::from_nanos(10), 0);
        assert_eq!(
            drain(&mut q),
            vec![(10, 0), (far, 1), (far + 5, 2), (farther, 3)]
        );
    }

    #[test]
    fn schedule_behind_cursor_pops_first() {
        // Popping a far event drags the cursor forward; a later schedule
        // at an earlier time must still pop before everything pending.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(5000)), 1);
        q.schedule(SimTime::from_nanos(tick_ns(9000)), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(tick_ns(5000)), 1)));
        // Cursor now sits at tick 9000's window; go back to tick 7.
        q.schedule(SimTime::from_nanos(tick_ns(7)), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(tick_ns(7))));
        assert_eq!(drain(&mut q), vec![(tick_ns(7), 3), (tick_ns(9000), 2)]);
    }

    #[test]
    fn cancel_inside_upper_level_is_shed_on_cascade() {
        // Cancel an entry parked in an upper level; the cascade that later
        // sweeps its slot must drop the corpse without disturbing order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(4100)), 0);
        let dead = q.schedule(SimTime::from_nanos(tick_ns(4200)), 1);
        q.schedule(SimTime::from_nanos(tick_ns(4300)), 2);
        assert!(q.cancel(dead));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![(tick_ns(4100), 0), (tick_ns(4300), 2)]);
    }

    #[test]
    fn cancel_finds_entries_after_they_move() {
        // Cancel looks an entry up where the *current* cursor says it must
        // be. Move three entries before cancelling them: one cascaded from
        // level 1 to level 0, one promoted out of overflow, and one fed
        // into the head between same-tick FIFO siblings.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(0)), 0);
        q.schedule(SimTime::from_nanos(tick_ns(260)), 1); // level 1, slot 1
        let cascaded = q.schedule(SimTime::from_nanos(tick_ns(300)), 2); // level 1, slot 1
        let sibling = SimTime::from_nanos(tick_ns(260) + 5);
        q.schedule(sibling, 10);
        let fed = q.schedule(sibling, 11);
        q.schedule(sibling, 12);
        let far = tick_ns((1 << WHEEL_BITS) + 5);
        q.schedule(SimTime::from_nanos(far), 20); // overflow
        let promoted = q.schedule(SimTime::from_nanos(tick_ns((1 << WHEEL_BITS) + 9)), 21);
        assert_eq!(q.overflow.len(), 2);

        // Popping tick 0 drains level 1 slot 1: tick 300 cascades into level
        // 0 and tick 260 (with its siblings) feeds the head.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(tick_ns(0)), 0)));
        assert_eq!(q.cursor, 260);
        assert!(q.cancel(fed), "same-tick sibling in the head");
        assert!(q.cancel(cascaded), "entry cascaded to level 0");
        assert!(!q.cancel(fed) && !q.cancel(cascaded));
        let mut got = Vec::new();
        for _ in 0..3 {
            let (t, p) = q.pop().unwrap();
            got.push((t.as_nanos(), p));
        }
        assert_eq!(
            got,
            vec![
                (tick_ns(260), 1),
                (sibling.as_nanos(), 10),
                (sibling.as_nanos(), 12)
            ]
        );

        // The wheel ran dry, so both overflow entries were promoted and the
        // nearer one fed the head; the other now sits in level 0.
        assert!(q.overflow.is_empty());
        assert_eq!(q.cursor, (1 << WHEEL_BITS) + 5);
        assert!(q.cancel(promoted), "entry promoted out of overflow");
        assert!(!q.cancel(promoted));
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q), vec![(far, 20)]);
    }

    #[test]
    fn schedule_at_pop_time_fires_immediately() {
        // The "now" of a driver loop: after popping an event, scheduling
        // another at exactly the popped instant (the cursor's own tick)
        // must neither abort nor mis-file — it is simply the next head.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(100)), 1);
        q.schedule(SimTime::from_nanos(tick_ns(200)), 2);
        let (t, p) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), p), (tick_ns(100), 1));
        q.schedule(t, 3);
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(drain(&mut q), vec![(tick_ns(100), 3), (tick_ns(200), 2)]);
    }

    /// Builds an entry like `schedule` but hands it straight to `place`,
    /// bypassing `schedule`'s own at-or-before-cursor pre-filter — this is
    /// the only way to pin `place`'s defensive head arm directly.
    fn raw_place(q: &mut EventQueue<u32>, at: SimTime, payload: u32) {
        let seq = q.next_seq;
        q.next_seq += 1;
        q.len += 1;
        q.place(Entry { at, seq, payload });
    }

    #[test]
    fn place_at_or_before_cursor_routes_to_head() {
        // Regression: `place` used to carry
        // `debug_assert!(t > self.cursor)` and an at-cursor tick underflowed
        // the level computation (63 - 64 leading_zeros) — aborting in debug
        // and filing into a garbage level in release. Both the `t == cursor`
        // and `t < cursor` cases must land in the head and pop in order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(5000)), 0);
        q.schedule(SimTime::from_nanos(tick_ns(9000) + 10), 4);
        q.pop(); // drags the cursor to tick 9000
        assert_eq!(q.cursor, 9000);
        raw_place(&mut q, SimTime::from_nanos(tick_ns(9000)), 3); // t == cursor
        raw_place(&mut q, SimTime::from_nanos(tick_ns(7)), 2); // t < cursor
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(tick_ns(7))));
        assert_eq!(
            drain(&mut q),
            vec![(tick_ns(7), 2), (tick_ns(9000), 3), (tick_ns(9000) + 10, 4)]
        );
    }

    #[test]
    fn clone_is_observationally_identical() {
        // A cloned queue must behave exactly like the original: same drain
        // order, same handle validity, same ids for post-clone schedules.
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..50u32)
            .map(|i| q.schedule(SimTime::from_nanos(tick_ns((i as u64 * 37) % 97) + i as u64), i))
            .collect();
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        q.pop();
        let mut c = q.clone();
        // Pre-clone handles work against the clone...
        assert_eq!(q.cancel(ids[4]), c.cancel(ids[4]));
        // ...post-clone schedules mint identical ids on both timelines...
        let a = q.schedule(SimTime::from_nanos(5), 999);
        let b = c.schedule(SimTime::from_nanos(5), 999);
        assert_eq!(a, b);
        // ...and the drains agree element for element.
        assert_eq!(drain(&mut q), drain(&mut c));
    }

    #[test]
    fn interleaved_pop_and_schedule_tracks_cursor() {
        // A periodic-timer-like workload: every pop schedules the next
        // beat; the cursor chases the minimum without ever skipping.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(0), 0u32);
        let mut fired = Vec::new();
        while let Some((t, p)) = q.pop() {
            fired.push((t.as_nanos(), p));
            if p < 20 {
                // 1 ms beats: crosses level-0 windows every time.
                q.schedule(SimTime::from_nanos(t.as_nanos() + 1_000_000), p + 1);
            }
        }
        let want: Vec<(u64, u32)> = (0..=20).map(|i| (i as u64 * 1_000_000, i)).collect();
        assert_eq!(fired, want);
    }
}
