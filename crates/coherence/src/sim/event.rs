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
    /// Component `comp`'s scheduled tick is due (see `Sim::comp_tick`).
    /// Never pushed when no components are configured, so the
    /// component-free event stream is unchanged.
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

#[cfg(test)]
mod tests {
    use super::{Event, EventQ};
    use simrng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives the queue the way the engine does: a clock that advances to
    /// each popped time, and a `seq` that grows with every push. Each
    /// event carries a payload in its core field.
    struct Wheel {
        q: EventQ,
        clock: u64,
        seq: u64,
    }

    impl Wheel {
        fn new() -> Self {
            Wheel {
                q: EventQ::new(),
                clock: 0,
                seq: 0,
            }
        }

        fn push(&mut self, time: u64, payload: u64) {
            self.seq += 1;
            let ev = Event::IssueOp {
                core: payload as usize,
            };
            self.q.push(self.clock, time, self.seq, ev);
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let (time, ev) = self.q.pop(self.clock)?;
            self.clock = time;
            let Event::IssueOp { core } = ev else {
                unreachable!("only IssueOp events are pushed");
            };
            Some((time, core as u64))
        }
    }

    /// Reference implementation: a plain binary min-heap ordered by
    /// `(time, seq)` — the specified pop order of the event queue.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
        seq: u64,
    }

    impl HeapOracle {
        fn push(&mut self, time: u64, payload: u64) {
            self.seq += 1;
            self.heap.push(Reverse((time, self.seq, payload)));
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            self.heap.pop().map(|Reverse((t, _, p))| (t, p))
        }
    }

    #[test]
    fn wheel_matches_heap_oracle_on_random_schedules() {
        for seed in 0..12u64 {
            let mut rng = SimRng::seed_from_u64(0x0077_e3a1 ^ seed.wrapping_mul(0x9e37_79b9));
            let mut wheel = Wheel::new();
            let mut oracle = HeapOracle::default();
            let mut payload = 0u64;
            for step in 0..4_000 {
                let push = wheel.q.len == 0 || rng.gen_bool(0.55);
                if push {
                    // Mostly near-future times (wheel slots), with
                    // occasional far-future outliers that must overflow to
                    // the backing heap, and exact-now ties for stability
                    // coverage.
                    let offset = match rng.gen_usize(10) {
                        0 => 0,
                        1..=6 => rng.gen_range_inclusive(1, 64),
                        7 | 8 => rng.gen_range_inclusive(65, 4_096),
                        _ => rng.gen_range_inclusive(100_000, 1 << 30),
                    };
                    payload += 1;
                    wheel.push(wheel.clock + offset, payload);
                    oracle.push(wheel.clock + offset, payload);
                } else {
                    let got = wheel.pop();
                    let want = oracle.pop();
                    assert_eq!(got, want, "seed {seed} step {step}: pop diverged");
                }
                assert_eq!(wheel.q.len, oracle.heap.len(), "seed {seed} step {step}");
            }
            // Drain: the full remaining order must match too.
            while let Some(want) = oracle.pop() {
                assert_eq!(wheel.pop(), Some(want), "seed {seed} drain diverged");
            }
            assert!(wheel.q.len == 0);
        }
    }

    #[test]
    fn wheel_is_fifo_within_a_tick() {
        // Events at the same time must pop in push order (the seq
        // tiebreaker) — the scheduler's round-robin fairness depends on it.
        let mut wheel = Wheel::new();
        for p in 0..100u64 {
            wheel.push(7, p);
        }
        for want in 0..100u64 {
            assert_eq!(wheel.pop(), Some((7, want)));
        }
        assert!(wheel.q.len == 0);
    }

    #[test]
    fn wheel_orders_far_future_bursts() {
        // Alternate near-slot and far-heap times; popped times must be
        // non-decreasing and nothing may be lost.
        let mut wheel = Wheel::new();
        let mut n = 0u64;
        for k in 0..256u64 {
            wheel.push(k, n);
            n += 1;
            wheel.push(1_000_000_000 + (256 - k), n);
            n += 1;
        }
        let mut popped = 0u64;
        let mut last = 0u64;
        while let Some((t, _)) = wheel.pop() {
            assert!(t >= last, "time went backwards: {last} -> {t}");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    /// Aimed squarely at the overflow-heap path: almost every push lands
    /// beyond the 256-slot horizon, and pops repeatedly advance the clock
    /// across horizon boundaries so far events migrate into wheel slots
    /// in bulk. Pop order must still match the `(time, seq)` oracle
    /// exactly — including ties between a migrated far event and a direct
    /// in-horizon push at the same timestamp, which is the subtle
    /// interleave the migration-before-push invariant exists for.
    #[test]
    fn overflow_heap_migration_matches_oracle_across_horizon_sweeps() {
        for seed in 0..12u64 {
            let mut rng = SimRng::seed_from_u64(0xfa12_07e1 ^ seed.wrapping_mul(0x9e37_79b9));
            let mut wheel = Wheel::new();
            let mut oracle = HeapOracle::default();
            let mut payload = 0u64;
            let mut pending_far: Vec<u64> = Vec::new();
            for step in 0..6_000 {
                let push = wheel.q.len == 0 || rng.gen_bool(0.5);
                if push {
                    let offset = match rng.gen_usize(10) {
                        // Clustered just past the horizon: these overflow
                        // at push time but migrate almost immediately.
                        0..=4 => rng.gen_range_inclusive(256, 512),
                        // Boundary pair: last in-horizon slot, first far.
                        5 => 255,
                        6 => 256,
                        // Deeper far-future, several horizons out.
                        7 | 8 => rng.gen_range_inclusive(513, 8_192),
                        // Tie with an already-overflowed event: replaying
                        // a previously far time once it is within the
                        // horizon makes a direct bucket push share a
                        // timestamp with the migrated event — seq order
                        // must win.
                        _ => {
                            let t = pending_far
                                .iter()
                                .rev()
                                .find(|&&t| t >= wheel.clock)
                                .copied();
                            match t {
                                Some(t) => t - wheel.clock,
                                None => rng.gen_range_inclusive(256, 512),
                            }
                        }
                    };
                    let time = wheel.clock + offset;
                    if offset >= 256 {
                        pending_far.push(time);
                        if pending_far.len() > 64 {
                            pending_far.remove(0);
                        }
                    }
                    payload += 1;
                    wheel.push(time, payload);
                    oracle.push(time, payload);
                } else {
                    let got = wheel.pop();
                    let want = oracle.pop();
                    assert_eq!(got, want, "seed {seed} step {step}: pop diverged");
                }
                assert_eq!(wheel.q.len, oracle.heap.len(), "seed {seed} step {step}");
            }
            while let Some(want) = oracle.pop() {
                assert_eq!(wheel.pop(), Some(want), "seed {seed} drain diverged");
            }
            assert!(wheel.q.len == 0);
        }
    }

    /// Directed reproduction of the migration ordering contract: events
    /// pushed far beyond the 256-tick horizon (overflow heap) must pop in
    /// global (time, push-order) order even when in-horizon pushes land
    /// on exactly the same ticks *after* the heap events have migrated
    /// into the wheel — here 88 of them, one per core of a dual-socket
    /// paper machine.
    #[test]
    fn overflow_migration_keeps_fifo_order_against_same_tick_pushes() {
        let mut p = Wheel::new();
        // 88 far-future events on four ticks, several per tick — all
        // beyond the wheel horizon at clock 0, so they land in the
        // overflow heap.
        for i in 0..88u64 {
            p.push(500 + (i % 4), 1_000 + i);
        }
        // In-horizon filler to walk the clock forward through migration.
        for t in 0..300u64 {
            p.push(t, t);
        }
        for t in 0..300u64 {
            assert_eq!(p.pop(), Some((t, t)), "filler popped out of order");
        }
        // Clock is now 299; ticks 500..=503 are inside the horizon and the
        // heap events have migrated (or will, lazily). Push younger events
        // onto those exact ticks: they must pop AFTER every migrated event
        // with the same tick.
        for i in 0..44u64 {
            p.push(500 + (i % 4), 2_000 + i);
        }
        let mut expected = Vec::new();
        for t in 0..4u64 {
            for i in 0..88u64 {
                if i % 4 == t {
                    expected.push((500 + t, 1_000 + i));
                }
            }
            for i in 0..44u64 {
                if i % 4 == t {
                    expected.push((500 + t, 2_000 + i));
                }
            }
        }
        let mut got = Vec::new();
        while let Some(pair) = p.pop() {
            got.push(pair);
        }
        assert_eq!(got, expected, "migration broke (time, push-order) ordering");
        assert!(p.q.len == 0);
    }

    /// A past-time push trips the queue's debug assertion, which names
    /// the misuse instead of silently corrupting slot order. (The
    /// companion pop-side assertion — an overflow event older than the
    /// event being popped — is unreachable unless this one is first
    /// defeated, so this is the canonical misuse test.)
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "events must never be scheduled in the past")]
    fn raw_queue_debug_asserts_on_past_scheduling() {
        let mut wheel = Wheel::new();
        wheel.push(300, 1);
        wheel.pop(); // clock -> 300
        wheel.push(10, 2);
    }
}
