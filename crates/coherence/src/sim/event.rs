//! The event queue: the scheduler's `Event` kinds and the calendar wheel
//! with its far-heap overflow that orders them by `(time, seq)`.

use super::cache::Waiter;
use super::LineId;
use crate::msg::{Msg, Node};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Scheduler events.
#[derive(Debug)]
pub(super) enum Event {
    /// A message arrives at `to`.
    Deliver { to: Node, msg: Msg },
    /// Core `core`'s thread issues its next operation.
    IssueOp { core: usize },
    /// An RMW (or plain store) finishes executing on `core`.
    RmwDone { core: usize, gen: u64 },
    /// A `delay()` elapses on `core` (cancellable by abort).
    DelayDone { core: usize, gen: u64 },
    /// Fast-path hit (read, or transactional write on an owned line):
    /// the result was computed and applied at submission; this event
    /// stands in for the `IssueOp` and resumes the thread with the
    /// configured hit latency. See [`super::Sim::try_fast_path`].
    FastHit { core: usize, result: u64 },
    /// Fast-path RMW/store on an owned line: stands in for the `IssueOp`
    /// and enters `start_rmw` directly — the line is already interned
    /// and known writable, so the inbox, `begin_op` checks, and the
    /// store dispatch are skipped. From here on the op runs the ordinary
    /// RMW window (`RmwDone`, stall handling) unchanged.
    FastRmw {
        core: usize,
        line: LineId,
        waiter: Waiter,
    },
    /// Component `comp`'s scheduled tick is due (see
    /// [`crate::component`]). Never pushed when no components are
    /// configured, so the component-free event stream is unchanged.
    CompTick { comp: u32 },
}

struct HeapItem {
    time: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Calendar-wheel event queue, ordered by `(time, seq)`.
///
/// Event times cluster within a few hundred cycles of the clock (hop
/// latencies, RMW windows), so a binary heap's `O(log n)` compares and
/// element moves are wasted work. The wheel keeps the near future — times
/// in `[clock, clock + WHEEL)` — in a circular array of per-time FIFO
/// buckets: push is an append plus a bitmap bit, pop is a bitmap scan.
/// Bucket vectors are pooled, so the steady state allocates nothing.
/// Times at or beyond the horizon (long `delay()`s) overflow into a
/// binary heap and migrate into the wheel as the clock advances.
///
/// Delivery is batched per wheel tick: within the horizon, each slot
/// holds exactly one time value, and the slot of the *current* clock can
/// only hold events at exactly the clock — which are by construction the
/// queue minimum. `pop` therefore drains the current tick's bucket with
/// direct indexed pops, paying the bitmap scan (and the overflow-
/// migration check) once per distinct timestamp rather than once per
/// event.
///
/// Order preservation: within the horizon each bucket holds exactly one
/// time value (times are unique mod `WHEEL` there), and appends happen in
/// `seq` order, so bucket FIFO order is `(time, seq)` order. An overflow
/// event migrates before any in-horizon push at the same time can occur
/// (a push at `t` requires `t < clock + WHEEL`, and migration runs
/// whenever the clock advances), so mixed buckets stay seq-sorted too.
pub(super) struct EventQ {
    /// Per-bucket FIFO list heads/tails into `nodes`; `NIL` = empty.
    heads: Box<[u32; WHEEL as usize]>,
    tails: Box<[u32; WHEEL as usize]>,
    /// Slab of list nodes. Freed nodes chain through `free` and are
    /// reused, so the steady state allocates nothing and the hot nodes
    /// stay in a few cache lines.
    nodes: Vec<EventNode>,
    free: u32,
    /// One bit per wheel bucket: bucket non-empty.
    occupied: [u64; (WHEEL / 64) as usize],
    far: BinaryHeap<HeapItem>,
    len: usize,
}

/// A wheel-bucket list node. It stores *only* the event: within the
/// horizon a slot holds exactly one time value (recomputed from the slot
/// index on pop), and FIFO position already encodes `seq` order, so
/// neither needs to be materialized — nodes stay small and the slab hot.
struct EventNode {
    ev: Event,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Wheel size in buckets. Must exceed every in-flight latency the
/// protocol generates on its own (hops, RMW/commit windows); only long
/// program `delay()`s should overflow. Kept small on purpose: the whole
/// wheel (slots, bitmap, and the steady-state slab) then fits in L1/L2,
/// and the pop-time bitmap scan touches at most four words.
const WHEEL: u64 = 256;

impl EventQ {
    pub(super) fn new() -> Self {
        EventQ {
            heads: Box::new([NIL; WHEEL as usize]),
            tails: Box::new([NIL; WHEEL as usize]),
            nodes: Vec::new(),
            free: NIL,
            occupied: [0u64; (WHEEL / 64) as usize],
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mark(&mut self, slot: u64) {
        self.occupied[(slot / 64 % (WHEEL / 64)) as usize] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn unmark(&mut self, slot: u64) {
        self.occupied[(slot / 64 % (WHEEL / 64)) as usize] &= !(1u64 << (slot % 64));
    }

    /// Appends to `slot`'s FIFO, preserving push (= `seq`) order.
    #[inline]
    fn bucket_push(&mut self, slot: u64, ev: Event) {
        let n = if self.free != NIL {
            let n = self.free;
            let node = &mut self.nodes[n as usize];
            self.free = node.next;
            node.ev = ev;
            node.next = NIL;
            n
        } else {
            let n = self.nodes.len() as u32;
            self.nodes.push(EventNode { ev, next: NIL });
            n
        };
        let tail = self.tails[(slot % WHEEL) as usize];
        if tail == NIL {
            self.heads[(slot % WHEEL) as usize] = n;
            self.mark(slot);
        } else {
            self.nodes[tail as usize].next = n;
        }
        self.tails[(slot % WHEEL) as usize] = n;
    }

    /// Unlinks `slot`'s FIFO head, returning the node to the freelist.
    #[inline]
    fn bucket_pop(&mut self, slot: u64) -> Option<Event> {
        let n = self.heads[(slot % WHEEL) as usize];
        if n == NIL {
            return None;
        }
        let node = &mut self.nodes[n as usize];
        let item = std::mem::replace(&mut node.ev, Event::IssueOp { core: 0 });
        let next = node.next;
        node.next = self.free;
        self.free = n;
        self.heads[(slot % WHEEL) as usize] = next;
        if next == NIL {
            self.tails[(slot % WHEEL) as usize] = NIL;
            self.unmark(slot);
        }
        Some(item)
    }

    #[inline]
    pub(super) fn push(&mut self, clock: u64, time: u64, seq: u64, ev: Event) {
        // A past-time push would underflow `time - clock` below and land
        // the event in a wheel slot up to WHEEL cycles in the future (or
        // the overflow heap), silently corrupting the (time, seq) order.
        // Fail loudly instead.
        debug_assert!(
            time >= clock,
            "EventQ::push: event time {time} is before the clock {clock} \
             (events must never be scheduled in the past)"
        );
        self.len += 1;
        if time - clock < WHEEL {
            let _ = seq; // implicit in FIFO position within the horizon
            self.bucket_push(time % WHEEL, ev);
        } else {
            self.far.push(HeapItem { time, seq, ev });
        }
    }

    /// The unique time an occupied wheel `slot` can hold: the one value in
    /// `[clock, clock + WHEEL)` congruent to `slot` mod `WHEEL`.
    #[inline]
    fn slot_time(clock: u64, slot: u64) -> u64 {
        clock + (slot.wrapping_sub(clock) % WHEEL)
    }

    /// Time of the earliest event, without removing it. `clock` is the
    /// simulator's current time; no event is ever scheduled in the past.
    fn next_time(&self, clock: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        match self.scan(clock) {
            Some(slot) => Some(Self::slot_time(clock, slot)),
            None => Some(self.far.peek().expect("len counted a missing event").time),
        }
    }

    /// Removes and returns the earliest event. `clock` is the simulator's
    /// current time; no event is ever scheduled in the past.
    pub(super) fn pop(&mut self, clock: u64) -> Option<(u64, Event)> {
        if self.len == 0 {
            return None;
        }
        // Same-tick fast pop: the current clock's slot can only hold
        // events at exactly `clock` (time ≡ slot mod WHEEL, and pushes
        // land within the horizon), which are the queue minimum. The
        // clock does not advance, so the overflow heap cannot have
        // entered the horizon — skip the scan and the migration check.
        if let Some(ev) = self.bucket_pop(clock % WHEEL) {
            self.len -= 1;
            return Some((clock, ev));
        }
        self.len -= 1;
        let (time, ev) = match self.scan(clock) {
            Some(slot) => {
                let ev = self.bucket_pop(slot).expect("occupied bit without items");
                (Self::slot_time(clock, slot), ev)
            }
            None => {
                // Wheel empty: the overflow heap holds the minimum.
                let item = self.far.pop().expect("len counted a missing event");
                (item.time, item.ev)
            }
        };
        // The clock is about to advance to `time`: pull newly in-horizon
        // overflow events into the wheel before anything can push at
        // those times.
        while let Some(top) = self.far.peek() {
            // Every overflow event was beyond the horizon of the clock at
            // its push, so it can never be older than the event being
            // popped; if this ever fails, a past-time push slipped
            // through and the `top.time - time` below would underflow.
            debug_assert!(
                top.time >= time,
                "EventQ::pop: overflow-heap event at {} is older than the popped event at {time} \
                 (a past-horizon push corrupted the queue order)",
                top.time
            );
            if top.time - time >= WHEEL {
                break;
            }
            let item = self.far.pop().unwrap();
            self.bucket_push(item.time % WHEEL, item.ev);
        }
        Some((time, ev))
    }

    /// Finds the occupied bucket with the smallest time ≥ `clock`, i.e.
    /// the first occupied bucket in circular order from `clock`'s slot.
    fn scan(&self, clock: u64) -> Option<u64> {
        let start = clock % WHEEL;
        let words = self.occupied.len() as u64;
        let first_word = start / 64;
        // Mask off bits below `start` in its word, then walk the bitmap
        // circularly; total work is a few dozen word reads at most.
        let head = self.occupied[first_word as usize] & (!0u64 << (start % 64));
        if head != 0 {
            return Some(first_word * 64 + head.trailing_zeros() as u64);
        }
        for i in 1..=words {
            let w = (first_word + i) % words;
            let bits = self.occupied[w as usize];
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as u64;
                // The wrapped tail of the start word: bits below `start`
                // belong to times ~WHEEL ahead, still valid candidates
                // only after the full circle — which this loop's `i ==
                // words` iteration (same word again) handles naturally.
                return Some(slot);
            }
        }
        None
    }
}

/// Test-only access to private engine structures, so the integration
/// property suite in `tests/` can exercise them directly. Not part of the
/// public API.
#[doc(hidden)]
pub mod testhooks {
    use super::{Event, EventQ};

    /// A handle over the calendar-wheel event queue that pushes and pops
    /// opaque `(time, payload)` pairs, mirroring exactly how the engine
    /// drives it (monotone clock, engine-allocated `seq` tiebreaker).
    pub struct WheelProbe {
        q: EventQ,
        clock: u64,
        seq: u64,
    }

    impl Default for WheelProbe {
        fn default() -> Self {
            Self::new()
        }
    }

    impl WheelProbe {
        pub fn new() -> Self {
            WheelProbe {
                q: EventQ::new(),
                clock: 0,
                seq: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.q.len
        }

        pub fn is_empty(&self) -> bool {
            self.q.is_empty()
        }

        /// Current clock (time of the last popped event).
        pub fn clock(&self) -> u64 {
            self.clock
        }

        /// Time of the earliest queued event, if any.
        pub fn peek_time(&self) -> Option<u64> {
            self.q.next_time(self.clock)
        }

        /// Schedules `payload` at `time` (must be `>= clock()`).
        pub fn push(&mut self, time: u64, payload: u64) {
            assert!(time >= self.clock, "event scheduled in the past");
            self.seq += 1;
            self.q.push(
                self.clock,
                time,
                self.seq,
                Event::IssueOp {
                    core: payload as usize,
                },
            );
        }

        /// Schedules `payload` at `time` WITHOUT the probe's past-time
        /// guard, so tests can confirm the raw queue's own debug
        /// assertion catches past-scheduling misuse with a clear message.
        pub fn push_unguarded(&mut self, time: u64, payload: u64) {
            self.seq += 1;
            self.q.push(
                self.clock,
                time,
                self.seq,
                Event::IssueOp {
                    core: payload as usize,
                },
            );
        }

        /// Pops the earliest event, advancing the clock to its time.
        pub fn pop(&mut self) -> Option<(u64, u64)> {
            let (time, ev) = self.q.pop(self.clock)?;
            self.clock = time;
            let Event::IssueOp { core } = ev else {
                unreachable!("probe only pushes IssueOp events");
            };
            Some((time, core as u64))
        }
    }
}
