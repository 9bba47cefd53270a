//! Cancellable discrete-event queue backed by a hierarchical timer wheel.
//!
//! The two-level scheduler simulation constantly arms timers that become
//! irrelevant before they fire: a vCPU's 30 ms slice-expiry timer dies when
//! the vCPU blocks early; a task's compute-completion event dies when its
//! vCPU is preempted. Rather than eagerly removing entries (O(n)),
//! [`EventQueue::cancel`] invalidates the entry's slab generation and later
//! drains lazily skip corpses.
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
//!   back) holds every live event at or before the wheel **cursor**. The
//!   back of the head is kept live at all times, which is what lets
//!   [`EventQueue::peek_time`] / [`EventQueue::peek`] take `&self`.
//!
//! The cursor only ever moves to the tick of the earliest pending event, so
//! a wheel slot is drained at most once per entry and cascading moves each
//! entry strictly downward: `schedule`, `cancel`, and `pop` are all O(1)
//! amortized. Pop order is **bit-identical** to the previous binary heap —
//! earliest `(time, insertion seq)` first — because every slot drain sorts
//! by the same total key the heap used.
//!
//! Liveness still rides on the **generation-tagged slab** (a plain
//! `Vec<u32>` plus a free list): an entry anywhere in the wheel is live iff
//! its recorded generation matches its slot's. Two complementary mechanisms
//! bound tombstone accumulation:
//!
//! * the head **back is always live** (dead backs are dropped eagerly by
//!   `cancel`/`pop`), and slot drains drop corpses on the floor;
//! * when dead entries outnumber live ones (and the population is
//!   non-trivial), the whole structure is **compacted** in O(n): live
//!   entries are retained in place, so a cancel-heavy run's memory stays
//!   proportional to the live event count.

use crate::time::SimTime;

/// Handle to a scheduled event, used for cancellation.
///
/// A handle encodes a slab slot and that slot's generation at scheduling
/// time. Slots are recycled, generations are not: every `(slot, generation)`
/// pair — and therefore every `EventId` value — is unique for the lifetime
/// of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
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

/// A wheel entry carrying its payload inline. No intrinsic ordering: slot
/// drains sort by the total key `(at, seq)` (`seq` is unique, so ties are
/// FIFO by schedule order, exactly as the old heap broke them).
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
    payload: E,
}

/// A time-ordered queue of events with stable FIFO tie-breaking and O(1)
/// logical cancellation.
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
/// copy: slab generations, free list, sequence counter, cursor, occupancy
/// bitmaps, head batch, and overflow list all carry over. A clone is
/// therefore observationally identical to the original under every
/// subsequent operation sequence — pops return the same `(time, seq)`
/// order, new schedules receive the same `EventId`s, and handles issued
/// before the clone remain valid against it. This is the foundation of
/// `System::snapshot()` checkpointing (DESIGN.md §2.7). Handles issued
/// *after* the clone point belong to the timeline that issued them and
/// must not be used against the other copy.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Live-or-dead entries at or before the cursor, sorted by `(at, seq)`
    /// **descending** so the global minimum pops from the back in O(1).
    /// Invariant: the back is live whenever any live event exists.
    head: Vec<Entry<E>>,
    /// `LEVELS * SLOTS` buckets, level-major. Entries here are strictly
    /// after the cursor.
    wheel: Vec<Vec<Entry<E>>>,
    /// One occupancy bit per slot, per level.
    occ: [[u64; WORDS]; LEVELS],
    /// Events more than `2^WHEEL_BITS` ticks past the cursor's window.
    overflow: Vec<Entry<E>>,
    /// Current wheel position, in ticks. Only moves forward (except on
    /// `clear`), and only to the tick of the earliest pending event.
    cursor: u64,
    /// Generation per slab slot; an entry is live iff its recorded
    /// generation still matches its slot's.
    gens: Vec<u32>,
    /// Last wheel bucket each slab slot's entry was placed in — a *hint*,
    /// never trusted without checking the bucket's back entry. Lets
    /// `cancel` physically shed the dominant arm-then-disarm pattern (a
    /// slice timer cancelled right after scheduling) instead of cascading
    /// a corpse through two cold levels.
    hints: Vec<u32>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    /// Entries physically present (head + wheel + overflow), live or dead.
    physical: usize,
    /// Reused buffer for slot drains (avoids an alloc per cascade).
    scratch: Vec<Entry<E>>,
}

/// Compaction never triggers below this physical population; tiny queues
/// are cheaper to skip-scan than to rebuild.
const COMPACT_MIN: usize = 64;

/// Hint value for "not in a wheel bucket" (head, overflow, or popped).
const NO_HINT: u32 = u32::MAX;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            head: Vec::new(),
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [[0; WORDS]; LEVELS],
            overflow: Vec::new(),
            cursor: 0,
            gens: Vec::new(),
            hints: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            physical: 0,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> TICK_SHIFT
    }

    #[inline]
    fn is_live(&self, e: &Entry<E>) -> bool {
        self.gens[e.slot as usize] == e.gen
    }

    /// Schedules `payload` to fire at instant `at` and returns a handle that
    /// can later be passed to [`cancel`](Self::cancel).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.gens.push(0);
                self.hints.push(NO_HINT);
                (self.gens.len() - 1) as u32
            }
        };
        let gen = self.gens[slot as usize];
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            at,
            seq,
            slot,
            gen,
            payload,
        };
        self.live += 1;
        self.physical += 1;
        if Self::tick_of(at) <= self.cursor {
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
        EventId::new(slot, gen)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled. Cancellation bumps the slab
    /// generation (O(1)); the entry is discarded lazily by a later slot
    /// drain or compaction. The payload of a cancelled event is dropped at
    /// that later point, not here.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        if self.gens.get(slot).copied() != Some(id.gen()) {
            return false;
        }
        self.gens[slot] = id.gen().wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        // Fast physical removal: if this slab slot's latest placement is
        // still the back of its hinted bucket, shed the corpse now. The
        // hint may be stale (the entry cascaded or fed the head), but the
        // back-entry slot check makes a stale hit impossible to confuse
        // with a live entry: anything matching `slot` is dead post-bump,
        // and bucket order is irrelevant, so dropping it is always sound.
        let b = self.hints[slot] as usize;
        if b < LEVELS * SLOTS
            && self.wheel[b].last().is_some_and(|e| e.slot as usize == slot)
        {
            self.wheel[b].pop();
            self.physical -= 1;
            if self.wheel[b].is_empty() {
                let s = b % SLOTS;
                self.occ[b / SLOTS][s >> 6] &= !(1u64 << (s & 63));
            }
        }
        self.settle();
        self.maybe_compact();
        true
    }

    /// Removes and returns the earliest live event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // The head back is always live (see `settle`), so this never skips.
        let entry = self.head.pop()?;
        debug_assert_eq!(self.gens[entry.slot as usize], entry.gen, "dead head back");
        self.gens[entry.slot as usize] = entry.gen.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        self.physical -= 1;
        self.settle();
        Some((entry.at, entry.payload))
    }

    /// The firing time of the earliest live event, without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.last().map(|e| e.at)
    }

    /// The earliest live event as `(time, &payload)`, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.head.last().map(|e| (e.at, &e.payload))
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of cancelled entries still physically present in the wheel
    /// (diagnostics; bounded at roughly the live count by compaction).
    pub fn tombstones(&self) -> usize {
        self.physical - self.live
    }

    /// Drops every pending event. Outstanding [`EventId`]s are invalidated:
    /// a later `cancel` with a pre-`clear` handle reports `false`.
    pub fn clear(&mut self) {
        self.head.clear();
        for l in 0..LEVELS {
            for w in 0..WORDS {
                let mut bits = self.occ[l][w];
                while bits != 0 {
                    let s = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.wheel[l * SLOTS + s].clear();
                }
                self.occ[l][w] = 0;
            }
        }
        self.overflow.clear();
        self.cursor = 0;
        self.physical = 0;
        self.free.clear();
        for (i, g) in self.gens.iter_mut().enumerate() {
            *g = g.wrapping_add(1);
            self.free.push(i as u32);
        }
        self.live = 0;
        // Every slot must re-enter the free list exactly once: a slot left
        // out is stranded forever, and a duplicated slot would alias two
        // live events on one generation counter — letting a single stale
        // handle cancel the wrong post-clear event.
        debug_assert_eq!(self.free.len(), self.gens.len());
        debug_assert!({
            let mut seen = vec![false; self.gens.len()];
            self.free
                .iter()
                .all(|&s| !std::mem::replace(&mut seen[s as usize], true))
        });
    }

    /// Sorted insert into the descending head. O(log n) search plus the
    /// memmove; only taken for schedules at or before the cursor.
    fn insert_head(&mut self, e: Entry<E>) {
        let key = (e.at, e.seq);
        let i = self.head.partition_point(|x| (x.at, x.seq) > key);
        self.head.insert(i, e);
    }

    /// Files an entry strictly after the cursor into the shallowest level
    /// whose window contains it, or the overflow list. O(1): the target
    /// level is the 6-bit field holding the highest bit where the tick and
    /// the cursor differ, found with a single `leading_zeros`.
    #[inline]
    fn place(&mut self, e: Entry<E>) {
        let t = Self::tick_of(e.at);
        if t <= self.cursor {
            // At or before the wheel position. The level computation below
            // is only defined for strictly-future ticks (`t == cursor`
            // underflows the `63 - leading_zeros` shift; `t < cursor` picks
            // a level from bits the cursor has already swept), so such
            // entries belong in the head batch, same as `schedule`'s own
            // at-or-before-cursor path. Both in-tree callers pre-filter
            // this case — `schedule` into `insert_head`, `route` into
            // `scratch` — so this arm is defensive, but it must be correct
            // rather than an assert: an at-cursor tick is a legitimate
            // instant to schedule for.
            self.insert_head(e);
            return;
        }
        let l = ((63 - (t ^ self.cursor).leading_zeros()) / LEVEL_BITS) as usize;
        if l >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let s = ((t >> (LEVEL_BITS * l as u32)) & SLOT_MASK) as usize;
        self.occ[l][s >> 6] |= 1 << (s & 63);
        self.hints[e.slot as usize] = (l * SLOTS + s) as u32;
        self.wheel[l * SLOTS + s].push(e);
    }

    /// Restores the invariant that the head back, if any live event exists,
    /// is live. Amortized O(1): every dropped corpse was pushed exactly
    /// once.
    #[inline]
    fn settle(&mut self) {
        while let Some(back) = self.head.last() {
            if self.is_live(back) {
                return;
            }
            self.head.pop();
            self.physical -= 1;
        }
        if self.live > 0 {
            self.advance();
        }
    }

    /// Moves the cursor forward to the earliest pending event and drains
    /// its slot into the head. Precondition: the head is empty and a live
    /// event exists somewhere in the wheel or overflow.
    ///
    /// Each iteration either drains the lowest occupied slot (cascading
    /// upper-level entries strictly downward) or promotes the nearest
    /// overflow window into the wheel, so every entry is touched at most
    /// `LEVELS + 1` times over its life — O(1) amortized.
    fn advance(&mut self) {
        debug_assert!(self.head.is_empty() && self.live > 0);
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
                // window, shedding corpses while we scan.
                let mut alive = std::mem::take(&mut self.overflow);
                let before = alive.len();
                let gens = &self.gens;
                alive.retain(|e| gens[e.slot as usize] == e.gen);
                self.physical -= before - alive.len();
                debug_assert!(!alive.is_empty(), "live count says an event exists");
                let w = alive
                    .iter()
                    .map(|e| Self::tick_of(e.at) >> WHEEL_BITS)
                    .min()
                    .unwrap();
                self.cursor = w << WHEEL_BITS;
                for e in alive {
                    if Self::tick_of(e.at) >> WHEEL_BITS == w {
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
    /// entries cascade into a strictly lower level. Liveness is only
    /// checked on the head feed — a corpse cascading one level further is
    /// a 32-byte sequential copy, cheaper than the cold random `gens` read
    /// that would prove it dead early.
    #[inline]
    fn route(&mut self, e: Entry<E>) {
        if Self::tick_of(e.at) <= self.cursor {
            if !self.is_live(&e) {
                self.physical -= 1;
                return;
            }
            self.scratch.push(e);
        } else {
            self.place(e);
        }
    }

    /// Sorts the routed batch by the global key and installs it as the new
    /// head. One O(k log k) sort per drained slot replaces k heap sifts,
    /// and the batch is all-live by construction.
    fn flush_scratch(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        debug_assert!(self.head.is_empty(), "batch feed requires an empty head");
        self.scratch
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        self.head.append(&mut self.scratch);
    }

    /// Rebuilds every bucket without tombstones once they outnumber live
    /// entries, keeping memory and drain cost proportional to live events.
    fn maybe_compact(&mut self) {
        if self.physical < COMPACT_MIN || self.physical - self.live <= self.live {
            return;
        }
        let gens = &self.gens;
        self.head.retain(|e| gens[e.slot as usize] == e.gen);
        for l in 0..LEVELS {
            for w in 0..WORDS {
                let mut bits = self.occ[l][w];
                while bits != 0 {
                    let s = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let gens = &self.gens;
                    self.wheel[l * SLOTS + s].retain(|e| gens[e.slot as usize] == e.gen);
                    if self.wheel[l * SLOTS + s].is_empty() {
                        self.occ[l][w] &= !(1u64 << (s & 63));
                    }
                }
            }
        }
        let gens = &self.gens;
        self.overflow.retain(|e| gens[e.slot as usize] == e.gen);
        self.physical = self.live;
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
    fn cancel_of_reused_slot_does_not_kill_successor() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.cancel(a);
        // The slot is recycled with a fresh generation; the stale handle
        // must not affect the new occupant.
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
    fn clear_discards_everything() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(a), "pre-clear handles are invalidated");
        // The queue is fully usable after a clear.
        q.schedule(SimTime::from_nanos(3), 9);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 9)));
    }

    #[test]
    fn clear_then_reschedule_keeps_stale_handles_dead() {
        let mut q = EventQueue::new();
        let pre: Vec<_> = (0..8u32)
            .map(|i| q.schedule(SimTime::from_nanos(i as u64), i))
            .collect();
        // Mixed slot history through the clear: one slot already recycled
        // by pop, one by cancel, the rest still live.
        q.pop();
        assert!(q.cancel(pre[3]));
        q.clear();
        // Refill past the cleared population so every recycled slot (and a
        // few fresh ones) is re-occupied, in whatever order the free list
        // hands slots out.
        let post: Vec<_> = (0..12u32)
            .map(|i| q.schedule(SimTime::from_nanos(100 + i as u64), 100 + i))
            .collect();
        assert_eq!(q.len(), 12);
        for id in &pre {
            assert!(!q.cancel(*id), "stale pre-clear handle hit a recycled slot");
        }
        assert_eq!(q.len(), 12, "stale cancels must not remove anything");
        for id in &post {
            assert!(q.cancel(*id), "post-clear handles must stay valid");
        }
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

    #[test]
    fn compaction_bounds_tombstones() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..1000u32)
            .map(|i| q.schedule(SimTime::from_nanos(1000 + i as u64), i))
            .collect();
        // Cancel from the back so corpses pile up out of the head's reach
        // (the live back never exposes them to settle's eager drop).
        for id in ids.iter().skip(100).rev() {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.tombstones() <= 100,
            "compaction should cap tombstones at the live count, got {}",
            q.tombstones()
        );
        // Survivors drain in schedule order (their times are increasing).
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn small_queues_skip_compaction() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..16u32)
            .map(|i| q.schedule(SimTime::from_nanos(10 + i as u64), i))
            .collect();
        for id in ids.iter().skip(1).rev() {
            q.cancel(*id);
        }
        // Below COMPACT_MIN nothing forces a rebuild; correctness holds.
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn heavy_churn_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            let ids: Vec<_> = (0..100u64)
                .map(|i| q.schedule(SimTime::from_nanos(round * 1000 + i), i))
                .collect();
            for (i, id) in ids.iter().enumerate() {
                if i % 2 == 0 {
                    assert!(q.cancel(*id));
                }
            }
            while q.pop().is_some() {}
        }
        // Slab never grew past one round's worth of concurrent events.
        assert!(q.gens.len() <= 100, "slab grew to {}", q.gens.len());
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

    /// Slab-allocates like `schedule` but hands the entry straight to
    /// `place`, bypassing `schedule`'s own at-or-before-cursor pre-filter —
    /// this is the only way to pin `place`'s defensive head arm directly.
    fn raw_place(q: &mut EventQueue<u32>, at: SimTime, payload: u32) {
        let slot = match q.free.pop() {
            Some(s) => s,
            None => {
                q.gens.push(0);
                q.hints.push(NO_HINT);
                (q.gens.len() - 1) as u32
            }
        };
        let gen = q.gens[slot as usize];
        let seq = q.next_seq;
        q.next_seq += 1;
        q.live += 1;
        q.physical += 1;
        q.place(Entry {
            at,
            seq,
            slot,
            gen,
            payload,
        });
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
