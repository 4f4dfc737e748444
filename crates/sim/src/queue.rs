//! The deterministic event queue at the heart of every simulation.
//!
//! Events are `(time, payload)` pairs. Ties in time are broken by
//! insertion order (a monotonically increasing sequence number), so a
//! simulation is a pure function of its inputs and RNG seed.
//!
//! # Engine internals (DESIGN.md §13)
//!
//! The queue is a hierarchical timer wheel over arena-allocated event
//! nodes, replacing the original comparison `BinaryHeap` plus two
//! `BTreeSet`s of live/cancelled tombstones (kept as
//! [`reference::ReferenceQueue`] for differential testing and as the
//! bench baseline):
//!
//! * **Ticks.** Time is bucketed into 1024 ps ticks (`TICK_SHIFT`).
//!   Multiple distinct picosecond timestamps can share a tick; a slot
//!   is sorted by `(time, seq)` when it drains, so delivery order is
//!   exactly the `(time, seq)` total order of the old queue and every
//!   digest downstream is unchanged.
//! * **Wheel.** `LEVELS` levels of `SLOTS` slots; level `l` slots
//!   are `64^l` ticks wide, so the wheel spans `64^5` ticks (≈ 1.1
//!   simulated seconds). A per-level occupancy bitmap finds the next
//!   populated slot with `rotate_right` + `trailing_zeros` instead of
//!   scanning. Events beyond the horizon land in a `BTreeMap`
//!   calendar keyed by tick — the far-future fallback.
//! * **Arena.** Nodes live in a slab (`Vec<Node>` + free list). An
//!   [`EventId`] packs the slot index and a generation counter, so
//!   cancellation is O(1): bump nothing, just clear the payload in
//!   place. A stale handle (wrong generation) can never cancel a
//!   recycled node. This fixes the tombstone leak of the old queue,
//!   where the `live`/`cancelled` sets grew without bound.
//! * **Reaping.** Cancelled nodes are reclaimed when their slot drains
//!   or, if the clock never reaches them, by a compaction sweep that
//!   runs once the cancelled population exceeds the live population
//!   (plus slack) — memory stays bounded by O(live) regardless of how
//!   many schedule/cancel cycles a run performs.
//!
//! All counters (`seq`, `popped`) are `u64`: at 10⁹ events/sec they
//! roll over after ~584 years of wall clock, so 10⁸⁺-event sweeps are
//! safe.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::time::SimTime;

/// Picoseconds per wheel tick, as a shift (2^10 = 1024 ps ≈ 1 ns).
const TICK_SHIFT: u32 = 10;
/// Slots per wheel level.
const SLOTS: usize = 64;
/// log2(SLOTS).
const SLOT_BITS: u32 = 6;
/// Wheel levels; level `l` slots are `64^l` ticks wide.
const LEVELS: usize = 5;
/// Compaction slack: a sweep runs when `cancelled > live + SLACK`.
const COMPACT_SLACK: u64 = 64;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Internally packs an arena slot index and a generation tag, so a
/// handle kept after its event fired (or was cancelled) can never
/// affect a later event that recycled the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(idx: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | idx as u64)
    }

    fn idx(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One arena-allocated event.
struct Node<E> {
    at: SimTime,
    seq: u64,
    gen: u32,
    /// `None` after cancellation (the node is reaped lazily).
    payload: Option<E>,
}

/// A deterministic priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use lauberhorn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(20), "late");
/// q.schedule(SimTime::from_ns(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_ns(10), "early"));
/// ```
pub struct EventQueue<E> {
    /// Arena of event nodes; `free` lists recyclable slots.
    nodes: Vec<Node<E>>,
    free: Vec<u32>,
    /// `wheel[l * SLOTS + s]` holds arena indices of events whose tick
    /// maps to level `l`, slot `s`.
    wheel: Vec<Vec<u32>>,
    /// Per-level occupancy bitmaps (bit `s` = slot `s` non-empty).
    occ: [u64; LEVELS],
    /// Far-future calendar: tick → arena indices, insertion order.
    overflow: BTreeMap<u64, Vec<u32>>,
    /// Events at or before `cur_tick`, sorted by `(at, seq)`, ready to
    /// deliver. Cancelled nodes are skipped (and freed) on pop.
    ready: VecDeque<u32>,
    /// The wheel cursor: every event still in the wheel or calendar
    /// has a tick `>= cur_tick`.
    cur_tick: u64,
    /// A lower bound on the tick of every event in the wheel and the
    /// calendar (`u64::MAX` when both are empty). [`EventQueue::place`]
    /// lowers it and each full scan in [`EventQueue::refill`] resets it
    /// to the smallest candidate, so a ready head below it is the
    /// global minimum without rescanning the levels.
    min_tick: u64,
    next_seq: u64,
    now: SimTime,
    live: u64,
    /// Cancelled nodes not yet reaped (triggers compaction).
    cancelled_pending: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

fn tick_of(t: SimTime) -> u64 {
    t.as_ps() >> TICK_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: BTreeMap::new(),
            ready: VecDeque::new(),
            cur_tick: 0,
            min_tick: u64::MAX,
            next_seq: 0,
            now: SimTime::ZERO,
            live: 0,
            cancelled_pending: 0,
            popped: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Arena slots currently allocated (live + not-yet-reaped
    /// cancelled nodes). Exposed so tests can assert that memory stays
    /// bounded across schedule/cancel churn.
    pub fn arena_len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self, at: SimTime, seq: u64, payload: E) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            if let Some(n) = self.nodes.get_mut(idx as usize) {
                n.at = at;
                n.seq = seq;
                n.payload = Some(payload);
                return (idx, n.gen);
            }
            // Unreachable: the free list only holds valid indices.
            return (idx, 0);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            at,
            seq,
            gen: 0,
            payload: Some(payload),
        });
        (idx, 0)
    }

    /// Returns the node's payload (if still live) and recycles its
    /// arena slot, bumping the generation so stale handles miss.
    fn free_node(&mut self, idx: u32) -> Option<(SimTime, E)> {
        let n = self.nodes.get_mut(idx as usize)?;
        let out = n.payload.take().map(|p| (n.at, p));
        n.gen = n.gen.wrapping_add(1);
        self.free.push(idx);
        out
    }

    /// Inserts `idx` into `ready`, keeping `(at, seq)` order.
    fn ready_insert(&mut self, idx: u32) {
        let key = match self.nodes.get(idx as usize) {
            Some(n) => (n.at, n.seq),
            None => return,
        };
        let pos = self.ready.partition_point(|&i| {
            self.nodes
                .get(i as usize)
                .is_some_and(|n| (n.at, n.seq) < key)
        });
        self.ready.insert(pos, idx);
    }

    /// Places `idx` (tick strictly above `cur_tick`) into the wheel or
    /// the overflow calendar.
    ///
    /// The level is the smallest one whose *current rotation* contains
    /// the tick — i.e. the first level at which the tick shares the
    /// cursor's prefix above the rotation. Distance (`delta`) alone is
    /// not safe: a tick almost one full rotation ahead can alias the
    /// cursor's own slot at that level, where [`EventQueue::refill`]
    /// would re-place it into the same slot forever. With the prefix
    /// rule every occupied slot's window starts at or after the
    /// cursor's window, so cascades strictly descend and terminate.
    fn place(&mut self, idx: u32, tick: u64) {
        debug_assert!(tick > self.cur_tick, "wheel placement behind cursor");
        self.min_tick = self.min_tick.min(tick);
        let mut level = 0;
        while level < LEVELS
            && (tick >> (SLOT_BITS * (level as u32 + 1)))
                != (self.cur_tick >> (SLOT_BITS * (level as u32 + 1)))
        {
            level += 1;
        }
        if level == LEVELS {
            self.overflow.entry(tick).or_default().push(idx);
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        if let Some(v) = self.wheel.get_mut(level * SLOTS + slot) {
            v.push(idx);
            if let Some(bits) = self.occ.get_mut(level) {
                *bits |= 1u64 << slot;
            }
        }
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; it is
    /// clamped to `now` so the event still fires (and a debug build
    /// asserts).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let (idx, gen) = self.alloc(at, seq, payload);
        let tick = tick_of(at);
        if tick <= self.cur_tick {
            // The cursor already passed (or sits on) this tick: the
            // event joins the ready run directly. Its sequence number
            // exceeds everything drained so far, so order holds.
            self.ready_insert(idx);
        } else {
            self.place(idx, tick);
        }
        self.live += 1;
        EventId::new(idx, gen)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been
    /// cancelled). O(1): the payload is cleared in place and the node
    /// reaped when its slot drains or the next compaction runs.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(n) = self.nodes.get_mut(id.idx()) else {
            return false;
        };
        if n.gen != id.gen() || n.payload.is_none() {
            return false;
        }
        n.payload = None;
        self.live -= 1;
        self.cancelled_pending += 1;
        if self.cancelled_pending > self.live + COMPACT_SLACK {
            self.compact();
        }
        true
    }

    /// Reaps every cancelled node still queued. Runs when cancelled
    /// nodes outnumber live ones, so the sweep is amortized O(1) per
    /// cancel and arena memory stays O(live).
    fn compact(&mut self) {
        let mut freed: Vec<u32> = Vec::new();
        for v in self.wheel.iter_mut() {
            v.retain(|&i| match self.nodes.get(i as usize) {
                Some(n) if n.payload.is_some() => true,
                _ => {
                    freed.push(i);
                    false
                }
            });
        }
        for (level, bits) in self.occ.iter_mut().enumerate() {
            let mut b = 0u64;
            for slot in 0..SLOTS {
                let occupied = self
                    .wheel
                    .get(level * SLOTS + slot)
                    .is_some_and(|v| !v.is_empty());
                if occupied {
                    b |= 1u64 << slot;
                }
            }
            *bits = b;
        }
        let nodes = &self.nodes;
        self.overflow.retain(|_, v| {
            v.retain(|&i| match nodes.get(i as usize) {
                Some(n) if n.payload.is_some() => true,
                _ => {
                    freed.push(i);
                    false
                }
            });
            !v.is_empty()
        });
        self.ready.retain(|&i| match nodes.get(i as usize) {
            Some(n) if n.payload.is_some() => true,
            _ => {
                freed.push(i);
                false
            }
        });
        for i in freed {
            self.free_node(i);
        }
        self.cancelled_pending = 0;
    }

    /// The lowest possible tick of any event in level `level`'s next
    /// occupied slot, with the slot position. `None` if the level is
    /// empty.
    fn level_candidate(&self, level: usize) -> Option<(u64, usize)> {
        let bits = *self.occ.get(level)?;
        if bits == 0 {
            return None;
        }
        let width = 1u64 << (SLOT_BITS * level as u32);
        let span = width << SLOT_BITS;
        let cpos = ((self.cur_tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
        // First occupied slot at or after the cursor's slot, circular.
        let off = bits.rotate_right(cpos).trailing_zeros();
        let slot = ((cpos + off) as usize) & (SLOTS - 1);
        let rbase = self.cur_tick & !(span - 1);
        let mut base = rbase + slot as u64 * width;
        // A window entirely behind the cursor belongs to the next
        // rotation. (The cursor's own slot never wraps: its window
        // contains `cur_tick`.)
        if base + width <= self.cur_tick {
            base += span;
        }
        Some((base.max(self.cur_tick), slot))
    }

    /// Moves events into `ready` until the head of `ready` is provably
    /// the global `(time, seq)` minimum: every wheel/calendar slot
    /// whose lower-bound tick could still precede (or tie) the ready
    /// head is drained or cascaded first.
    ///
    /// Returns at once while the ready head's tick is below `min_tick`:
    /// the driver peeks far more often than the head changes.
    fn refill(&mut self) {
        loop {
            let ready_tick = self
                .ready
                .front()
                .and_then(|&i| self.nodes.get(i as usize))
                .map(|n| tick_of(n.at));
            if ready_tick.is_some_and(|rt| rt < self.min_tick) {
                return;
            }
            // Min candidate across levels (high levels first, so ties
            // cascade before a finer level drains) and the calendar.
            let mut best: Option<(u64, usize, usize)> = None; // (tick, level, slot)
            for level in (0..LEVELS).rev() {
                if let Some((cand, slot)) = self.level_candidate(level) {
                    if best.is_none_or(|(b, _, _)| cand < b) {
                        best = Some((cand, level, slot));
                    }
                }
            }
            let overflow_cand = self.overflow.keys().next().copied();
            let use_overflow = overflow_cand.is_some_and(|k| best.is_none_or(|(b, _, _)| k < b));
            let min_cand = if use_overflow {
                overflow_cand
            } else {
                best.map(|(b, _, _)| b)
            };
            let Some(cand) = min_cand else {
                self.min_tick = u64::MAX;
                return; // Wheel and calendar empty: ready is all there is.
            };
            self.min_tick = cand;
            if ready_tick.is_some_and(|rt| rt < cand) {
                return; // Ready head strictly precedes anything queued.
            }
            if use_overflow {
                if let Some(k) = overflow_cand {
                    self.cur_tick = self.cur_tick.max(k);
                    if let Some(batch) = self.overflow.remove(&k) {
                        for idx in batch {
                            self.ready_insert(idx);
                        }
                    }
                }
                continue;
            }
            let Some((base, level, slot)) = best else {
                return;
            };
            let mut batch = match self.wheel.get_mut(level * SLOTS + slot) {
                Some(v) => std::mem::take(v),
                None => Vec::new(),
            };
            if let Some(bits) = self.occ.get_mut(level) {
                *bits &= !(1u64 << slot);
            }
            self.cur_tick = self.cur_tick.max(base);
            if level == 0 {
                // A level-0 slot holds exactly one tick's events (two
                // co-resident ticks in one slot would differ by a
                // multiple of 64 yet both lie within 64 ticks of the
                // monotone cursor — impossible).
                for idx in batch.drain(..) {
                    self.ready_insert(idx);
                }
            } else {
                // Cascade: redistribute one level-`l` slot (64^l ticks
                // wide) into finer levels relative to the advanced
                // cursor. Each event strictly descends, so this
                // terminates.
                for idx in batch.drain(..) {
                    let tick = match self.nodes.get(idx as usize) {
                        Some(n) => tick_of(n.at),
                        None => {
                            self.free_node(idx);
                            self.cancelled_pending = self.cancelled_pending.saturating_sub(1);
                            continue;
                        }
                    };
                    if tick <= self.cur_tick {
                        self.ready_insert(idx);
                    } else {
                        self.place(idx, tick);
                    }
                }
            }
            // Hand the drained Vec's capacity back to its slot (the
            // cascade only places into *finer* levels, so the slot is
            // still empty): steady-state refills then allocate nothing.
            if let Some(v) = self.wheel.get_mut(level * SLOTS + slot) {
                *v = batch;
            }
        }
    }

    /// Pops the earliest non-cancelled event, advancing the clock to
    /// its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            self.refill();
            let idx = self.ready.pop_front()?;
            match self.free_node(idx) {
                Some((at, payload)) => {
                    debug_assert!(at >= self.now, "time went backwards");
                    self.now = at;
                    self.popped += 1;
                    self.live -= 1;
                    return Some((at, payload));
                }
                None => {
                    // A cancelled node: reap and keep looking.
                    self.cancelled_pending = self.cancelled_pending.saturating_sub(1);
                }
            }
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            self.refill();
            let &idx = self.ready.front()?;
            match self.nodes.get(idx as usize) {
                Some(n) if n.payload.is_some() => return Some(n.at),
                _ => {
                    // Reap a cancelled head and keep looking.
                    self.ready.pop_front();
                    self.free_node(idx);
                    self.cancelled_pending = self.cancelled_pending.saturating_sub(1);
                }
            }
        }
    }

    /// Whether any events remain (`&mut` because it prunes cancelled
    /// entries from the ready head).
    #[allow(clippy::wrong_self_convention)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of pending (non-cancelled) events.
    #[allow(clippy::len_without_is_empty)] // `is_empty` exists but takes &mut.
    pub fn len(&self) -> usize {
        self.live as usize
    }
}

/// The original `BinaryHeap` + tombstone-set queue, kept as the
/// differential-testing oracle and the `engine_bench` baseline.
///
/// Its `live`/`cancelled` bookkeeping grows without bound under
/// schedule/cancel churn — the tombstone leak the wheel fixes — so it
/// must never be used by simulations, only compared against.
pub mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    /// Handle returned by [`ReferenceQueue::schedule`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct RefEventId(u64);

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        id: RefEventId,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest event
            // pops first, lowest sequence number breaking ties.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The pre-refactor event queue, verbatim.
    pub struct ReferenceQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: SimTime,
        live: std::collections::BTreeSet<RefEventId>,
        cancelled: std::collections::BTreeSet<RefEventId>,
        popped: u64,
    }

    impl<E> Default for ReferenceQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> ReferenceQueue<E> {
        /// Creates an empty queue with the clock at zero.
        pub fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
                live: std::collections::BTreeSet::new(),
                cancelled: std::collections::BTreeSet::new(),
                popped: 0,
            }
        }

        /// See [`super::EventQueue::now`].
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// See [`super::EventQueue::delivered`].
        pub fn delivered(&self) -> u64 {
            self.popped
        }

        /// See [`super::EventQueue::schedule`].
        pub fn schedule(&mut self, at: SimTime, payload: E) -> RefEventId {
            debug_assert!(at >= self.now, "scheduling into the past");
            let at = at.max(self.now);
            let id = RefEventId(self.next_seq);
            self.heap.push(Entry {
                at,
                seq: self.next_seq,
                id,
                payload,
            });
            self.live.insert(id);
            self.next_seq += 1;
            id
        }

        /// See [`super::EventQueue::cancel`].
        pub fn cancel(&mut self, id: RefEventId) -> bool {
            if self.live.remove(&id) {
                self.cancelled.insert(id);
                true
            } else {
                false
            }
        }

        /// See [`super::EventQueue::pop`].
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(entry) = self.heap.pop() {
                if self.cancelled.remove(&entry.id) {
                    continue;
                }
                self.live.remove(&entry.id);
                debug_assert!(entry.at >= self.now, "time went backwards");
                self.now = entry.at;
                self.popped += 1;
                return Some((entry.at, entry.payload));
            }
            None
        }

        /// See [`super::EventQueue::peek_time`].
        pub fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(top) = self.heap.peek() {
                let (id, at) = (top.id, top.at);
                if self.cancelled.contains(&id) {
                    if let Some(e) = self.heap.pop() {
                        self.cancelled.remove(&e.id);
                    }
                } else {
                    return Some(at);
                }
            }
            None
        }

        /// See [`super::EventQueue::len`].
        pub fn len(&self) -> usize {
            self.live.len()
        }

        /// See [`super::EventQueue::is_empty`].
        pub fn is_empty(&self) -> bool {
            self.live.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.schedule(SimTime::from_ns(10), ());
        q.schedule(SimTime::from_ns(40), ());
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_ns(40));
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let keep = q.schedule(SimTime::from_ns(10), "keep");
        let drop_id = q.schedule(SimTime::from_ns(5), "drop");
        assert!(q.cancel(drop_id));
        // Double-cancel reports false.
        assert!(!q.cancel(drop_id));
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "keep");
        assert!(q.pop().is_none());
        // Cancelling an already-fired event reports false.
        assert!(!q.cancel(keep));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ns(1), 'a');
        q.schedule(SimTime::from_ns(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn relative_scheduling_pattern() {
        // The common usage: schedule relative to `now()`.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 0u32);
        while let Some((t, n)) = q.pop() {
            if n < 3 {
                q.schedule(t + SimDuration::from_ns(10), n + 1);
            }
        }
        assert_eq!(q.now(), SimTime::from_ns(40));
    }

    #[test]
    fn far_future_events_take_the_calendar_path() {
        let mut q = EventQueue::new();
        // Beyond the 64^5-tick wheel horizon (~1.1 s).
        q.schedule(SimTime::from_secs(10), "far");
        q.schedule(SimTime::from_secs(2), "mid");
        q.schedule(SimTime::from_ns(10), "near");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_tick_different_ps_orders_by_time() {
        // Distinct picosecond timestamps inside one 1024 ps tick must
        // still deliver in time order, not insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(900), 2);
        q.schedule(SimTime::from_ps(100), 1);
        q.schedule(SimTime::from_ps(1000), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn events_split_across_levels_at_one_tick_merge_in_order() {
        // An event far away (coarse level) and one scheduled later but
        // nearby (fine level) can share a timestamp; insertion order
        // must win.
        let mut q = EventQueue::new();
        let t = SimTime::from_us(100);
        q.schedule(t, 1); // delta ≈ 97k ticks → level 2.
        q.schedule(SimTime::from_us(99), 0);
        let (_, first) = q.pop().unwrap(); // Advances near t.
        assert_eq!(first, 0);
        q.schedule(t, 2); // Now delta < 64 → level 0 (or ready).
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn rotation_aliased_ticks_terminate_and_order() {
        // Regression: an event almost one full rotation ahead of the
        // cursor aliases the cursor's own slot at that level if placed
        // by distance alone, and the refill cascade then re-places it
        // into the same slot forever. Build exactly that shape at
        // level 1 (tick width 64): cursor near tick 100, second event
        // ~64*64-10 ticks later with the same `tick % 4096` slot image.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(100 << TICK_SHIFT), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1)); // Cursor → tick 100.
                                                      // 4186 % 4096 >> 6 == 100 >> 6: same level-1 slot image,
                                                      // distance 4086 < one level-1 rotation (4096).
        q.schedule(SimTime::from_ps(4186 << TICK_SHIFT), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.pop().is_none());
        // The same shape at every level, scheduling each aliased event
        // only after a pop has parked the cursor mid-rotation.
        let mut q = EventQueue::new();
        for level in 1..LEVELS as u32 {
            let width = 1u64 << (SLOT_BITS * level);
            let span = width << SLOT_BITS;
            // Cursor mid-window so the aliased tick (same slot image,
            // lower in-window offset, one rotation later) keeps its
            // distance strictly below a full rotation.
            let cursor = span + 3 * width + width / 2;
            q.schedule(SimTime::from_ps(cursor << TICK_SHIFT), level as i32 * 10);
            assert_eq!(q.pop().map(|(_, e)| e), Some(level as i32 * 10));
            q.schedule(
                SimTime::from_ps((cursor + span - 1) << TICK_SHIFT),
                level as i32 * 10 + 1,
            );
            assert_eq!(q.pop().map(|(_, e)| e), Some(level as i32 * 10 + 1));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn arena_stays_bounded_under_schedule_cancel_churn() {
        // The tombstone-leak regression test: a million schedule/cancel
        // cycles at a frozen clock must not grow memory. The old queue
        // kept every cancelled id in two `BTreeSet`s and every payload
        // in the heap until the clock caught up.
        let mut q = EventQueue::new();
        let horizon = SimTime::from_ms(100);
        for i in 0..1_000_000u64 {
            let id = q.schedule(horizon, i);
            assert!(q.cancel(id));
            assert!(
                q.arena_len() <= 1024,
                "arena grew to {} after {} cycles",
                q.arena_len(),
                i + 1
            );
        }
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_handles_never_cancel_recycled_slots() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ns(1), 'a');
        q.pop();
        // 'b' recycles a's arena slot; the stale handle must miss.
        let _b = q.schedule(SimTime::from_ns(2), 'b');
        assert!(!q.cancel(a));
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }
}
