//! The protocol engine: directory, private caches, HTM conflict handling,
//! and the discrete-event core.
//!
//! Everything here runs on the scheduler thread; application threads only
//! see [`crate::machine::SimCtx`]. The engine models the dynamics the paper
//! analyzes in §3:
//!
//! * contended atomic RMWs serialize through an owner-to-owner Fwd-GetM
//!   handoff chain, giving the ≈(C+1)/2-message-delay average latency of
//!   §3.2;
//! * HTM transactions mark lines transactional and abort on receipt of a
//!   conflicting coherence message (requester-wins), so the back-to-back
//!   invalidations of a single winning GetM abort all read-phase
//!   transactions *concurrently* (§3.3);
//! * a Fwd-GetS that reaches a core whose transactional write is still
//!   waiting for invalidation acks aborts it — the tripped writer (§3.4) —
//!   unless the §3.4.1 microarchitectural fix is enabled, in which case the
//!   request is stalled until the commit.
//!
//! ### Commit atomicity
//!
//! On real hardware the transactional store retires into the store buffer
//! immediately and `_xend` blocks until the GetM completes, so the commit
//! is atomic with request completion (§3.4.1). In this engine the *write*
//! operation blocks the thread until ownership instead, which opens a
//! few-cycle simulated window between write completion and the `xend`
//! request. To keep the paper's "the first GetM winner commits" behaviour
//! exact, Fwd requests arriving for a transactionally written line whose
//! ownership is already held are stalled until commit/abort rather than
//! aborting the transaction; the true tripped-writer abort is the Fwd-GetS
//! that arrives while the GetM is still pending.
//!
//! ### State layout and the uncontended fast path
//!
//! Line addresses are interned into a dense [`LineId`] arena; everything
//! keyed per line — cache state/value/transaction flags, the directory —
//! is an arena-indexed array rather than a hash map, so the per-operation
//! hit check is a couple of indexed loads and a 176-core machine's state
//! stays cache-resident. On top of that layout, `submit_op` decides
//! uncontended local hits at submission: the state mutation happens
//! immediately (or is delegated for RMWs) and a single stand-in event —
//! no directory messages, no inbox traversal, no per-op dispatch —
//! retires the op at exactly the time and event-sequence position the
//! full protocol would have used. The admission conditions (see
//! [`Sim::try_fast_path`]) are chosen so this is provably bit-exact with
//! the full protocol, which remains available as the semantic reference
//! via `MachineConfig::fast_path = false`.

use crate::component::{self, Component};
use crate::config::{ComponentSpec, HomePolicy, MachineConfig};
use crate::fxhash::FxHashMap;
use crate::msg::{Msg, Node};
use crate::stats::{Stats, TraceEvent};
use crate::txn::{self};
use simrng::SimRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Dense index of an interned line address. Word-granular simulated
/// memory recycles addresses through `simalloc`, so the arena stays small
/// even over long runs and dense per-line arrays stay cache-resident.
type LineId = u32;

/// The address ⇄ id interner shared by the directory and every cache.
#[derive(Debug)]
struct LineArena {
    ids: FxHashMap<u64, LineId>,
    addrs: Vec<u64>,
    /// One-entry lookup memo. Workloads hammer a handful of lines (a
    /// shared counter, a queue's head/tail), so consecutive lookups
    /// usually repeat the previous address; the memo answers them with a
    /// compare instead of a hash probe. `u64::MAX` is never a line
    /// address (word-granular addresses come from `simalloc`), so it
    /// serves as the empty sentinel.
    last: (u64, LineId),
}

impl Default for LineArena {
    fn default() -> Self {
        LineArena {
            ids: FxHashMap::default(),
            addrs: Vec::new(),
            last: (u64::MAX, 0),
        }
    }
}

impl LineArena {
    /// Id of `addr`, allocating one on first sight.
    #[inline]
    fn intern(&mut self, addr: u64) -> LineId {
        if self.last.0 == addr {
            return self.last.1;
        }
        let id = if let Some(&id) = self.ids.get(&addr) {
            id
        } else {
            let id = self.addrs.len() as LineId;
            self.addrs.push(addr);
            self.ids.insert(addr, id);
            id
        };
        self.last = (addr, id);
        id
    }

    /// Id of `addr` if it has ever been touched.
    #[inline]
    fn get(&mut self, addr: u64) -> Option<LineId> {
        if self.last.0 == addr {
            return Some(self.last.1);
        }
        let id = self.ids.get(&addr).copied();
        if let Some(id) = id {
            self.last = (addr, id);
        }
        id
    }

    /// Number of distinct lines ever touched.
    fn len(&self) -> usize {
        self.addrs.len()
    }
}

/// A small set of line ids (transaction read/write sets). The paper's
/// transactions touch a handful of lines, so a linear-scan vector beats
/// any tree or table — and unlike a hash set it allocates nothing after
/// the first few inserts and iterates in deterministic (insertion) order.
#[derive(Debug, Default)]
struct LineSet {
    lines: Vec<LineId>,
}

impl LineSet {
    #[inline]
    fn contains(&self, line: LineId) -> bool {
        self.lines.contains(&line)
    }

    #[inline]
    fn insert(&mut self, line: LineId) {
        if !self.lines.contains(&line) {
            self.lines.push(line);
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.lines.len()
    }

    fn iter(&self) -> impl Iterator<Item = &LineId> {
        self.lines.iter()
    }

    fn clear(&mut self) {
        self.lines.clear();
    }
}

/// A sorted set of core indices (directory sharer lists). Kept sorted so
/// invalidations fan out in ascending core order — the same order the
/// previous `BTreeSet` representation produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SharerSet {
    cores: Vec<usize>,
}

impl SharerSet {
    fn one(core: usize) -> Self {
        SharerSet { cores: vec![core] }
    }

    fn two(a: usize, b: usize) -> Self {
        let mut cores = if a < b { vec![a, b] } else { vec![b, a] };
        cores.dedup();
        SharerSet { cores }
    }

    fn insert(&mut self, core: usize) {
        if let Err(pos) = self.cores.binary_search(&core) {
            self.cores.insert(pos, core);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &usize> {
        self.cores.iter()
    }
}

/// Stable state of a line in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CState {
    Invalid = 0,
    Shared = 1,
    /// MESI Exclusive: sole clean copy; silent upgrade to Modified on
    /// write (only granted when `MachineConfig::mesi_exclusive` is set).
    Exclusive = 2,
    Modified = 3,
}

impl CState {
    /// Can the holder write without a coherence transaction?
    fn writable(self) -> bool {
        matches!(self, CState::Exclusive | CState::Modified)
    }
}

/// Per-line flag byte layout (see [`Cache::flags`]): the two state bits
/// plus the transactional read/write marks.
const F_STATE: u8 = 0b0011;
/// Line is in the running transaction's read set.
const F_TR: u8 = 0b0100;
/// Line is in the running transaction's write set with the write applied
/// (`values` holds the transactional, uncommitted datum; `cleans` the
/// pre-transaction one).
const F_TW: u8 = 0b1000;

#[inline]
fn decode_state(flags: u8) -> CState {
    match flags & F_STATE {
        0 => CState::Invalid,
        1 => CState::Shared,
        2 => CState::Exclusive,
        _ => CState::Modified,
    }
}

/// What the blocked thread wants done when its coherence request completes.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    Read,
    Write(u64),
    Cas {
        old: u64,
        new: u64,
    },
    Faa(u64),
    Swap(u64),
    /// A transactional write: applied only if the transaction is still
    /// live when ownership arrives.
    TxWrite(u64),
}

/// An outstanding coherence request. A core has at most one request its
/// thread is *blocked on*, plus any number of *headless* requests left
/// behind by aborted transactions (§3.3: the cache still takes ownership,
/// asynchronously, while the core moves on). Few enough at any instant
/// that a linear-scan vector beats a hash map.
#[derive(Debug)]
struct PendingReq {
    line: LineId,
    is_getm: bool,
    have_data: bool,
    value: u64,
    acks_expected: Option<u64>,
    acks_got: u64,
    /// The directory granted Exclusive on this (GetS) response.
    got_excl: bool,
    /// `None` once the issuing transaction aborted: the request finishes
    /// headless (the cache still takes ownership — §3.3's pending-GetM
    /// effect — but no thread is resumed).
    waiter: Option<Waiter>,
}

/// Running-transaction bookkeeping.
#[derive(Debug, Default)]
struct Txn {
    depth: u32,
    read_set: LineSet,
    write_set: LineSet,
}

/// Where a core's thread currently is, from the engine's point of view.
/// Exactly one response is owed to the thread whenever the state is not
/// `Idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpState {
    /// No outstanding operation (finished, or response already queued).
    Idle,
    /// The thread submitted an op whose `IssueOp` event has not fired yet.
    Inbox,
    /// `begin_op` is on the stack for this core.
    Current,
    /// Blocked in a `delay()`.
    Delaying,
    /// Blocked on the pending coherence request.
    PendingWait,
    /// An RMW is executing (`RmwDone` scheduled).
    RmwExec,
    /// Blocked in `wait_tick()` until a `TickGate` component releases
    /// this core. Not permitted inside a transaction.
    TickWait,
}

/// One core's private cache controller plus HTM state. Per-line state is
/// structure-of-arrays, dense over the line arena: the flag byte, the
/// current value, and the pre-transaction value live in three parallel
/// vectors grown lazily to the highest line this cache has touched.
#[derive(Debug)]
struct Cache {
    /// Per-line flag byte, indexed by [`LineId`]: bits 0–1 the
    /// [`CState`], bit 2 `F_TR`, bit 3 `F_TW`. Lines beyond the vector
    /// are Invalid with no marks.
    flags: Vec<u8>,
    /// Per-line current value (transactional, uncommitted datum while
    /// `F_TW` is set).
    values: Vec<u64>,
    /// Per-line pre-transaction value to restore on abort (valid while
    /// `F_TW` is set).
    cleans: Vec<u64>,
    /// Outstanding coherence requests: at most one the thread waits on
    /// (waiter set / deferred op), plus headless ones. Linear scan.
    pending: Vec<PendingReq>,
    /// A thread operation deferred because a (headless) request for its
    /// line is already in flight; re-dispatched at that request's
    /// completion (the MSHR-merge a real core performs).
    deferred: Option<OpKind>,
    deferred_line: LineId,
    /// Coherence requests stalled behind a pending request / executing RMW
    /// / committing transaction. Appended in arrival order, so the vector
    /// order *is* stamp order; releases replay unblocked messages in that
    /// order, matching the arrival-ordered queue this replaces.
    stalled: Vec<(u64, LineId, Msg)>,
    /// Arrival counter feeding the stamps in `stalled`.
    stall_stamp: u64,
    /// An RMW is executing (between data arrival and `RmwDone`): incoming
    /// Fwd requests must wait (§3.2).
    rmw_busy: bool,
    /// Line the executing RMW targets (valid while `rmw_busy`).
    rmw_line: LineId,
    txn: Option<Txn>,
    /// Retired transaction bookkeeping kept for reuse, so `xbegin` after
    /// the first never allocates read/write-set storage.
    txn_spare: Option<Txn>,
    /// Abort detected while the thread's next op sat in the inbox; reported
    /// when that op issues.
    pending_abort: Option<u32>,
    /// Tick-gate releases that arrived while this core was *not* blocked
    /// in `wait_tick()`; the next `wait_tick()` consumes one immediately.
    /// Banking absorbs gate/consumer phase drift without losing ticks.
    ticks_banked: u64,
    /// Generation counter for cancellable wakeups (delays, RMW end).
    gen: u64,
    op_state: OpState,
    socket: usize,
}

impl Cache {
    fn new(socket: usize) -> Self {
        Cache {
            flags: Vec::new(),
            values: Vec::new(),
            cleans: Vec::new(),
            pending: Vec::new(),
            deferred: None,
            deferred_line: 0,
            stalled: Vec::new(),
            stall_stamp: 0,
            rmw_busy: false,
            rmw_line: 0,
            txn: None,
            txn_spare: None,
            pending_abort: None,
            ticks_banked: 0,
            gen: 0,
            op_state: OpState::Idle,
            socket,
        }
    }

    /// Grows the per-line arrays to cover `line`.
    #[inline]
    fn ensure(&mut self, line: LineId) {
        let need = line as usize + 1;
        if self.flags.len() < need {
            self.flags.resize(need, 0);
            self.values.resize(need, 0);
            self.cleans.resize(need, 0);
        }
    }

    #[inline]
    fn state(&self, line: LineId) -> CState {
        decode_state(self.flags.get(line as usize).copied().unwrap_or(0))
    }

    #[inline]
    fn set_state(&mut self, line: LineId, s: CState) {
        self.ensure(line);
        let f = &mut self.flags[line as usize];
        *f = (*f & !F_STATE) | s as u8;
    }

    #[inline]
    fn value(&self, line: LineId) -> u64 {
        self.values.get(line as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn flag(&self, line: LineId, bit: u8) -> bool {
        self.flags.get(line as usize).copied().unwrap_or(0) & bit != 0
    }

    #[inline]
    fn set_flag(&mut self, line: LineId, bit: u8, on: bool) {
        self.ensure(line);
        let f = &mut self.flags[line as usize];
        if on {
            *f |= bit;
        } else {
            *f &= !bit;
        }
    }

    /// The line of the request the thread is currently blocked on, if any.
    fn thread_pending_line(&self) -> Option<LineId> {
        self.pending
            .iter()
            .find(|p| p.waiter.is_some())
            .map(|p| p.line)
    }

    #[inline]
    fn pending_on(&self, line: LineId) -> bool {
        self.pending.iter().any(|p| p.line == line)
    }

    #[inline]
    fn pending_get_mut(&mut self, line: LineId) -> Option<&mut PendingReq> {
        self.pending.iter_mut().find(|p| p.line == line)
    }

    /// Removes and returns the pending request for `line`, preserving the
    /// order of the rest (order is observable through `thread_pending_line`
    /// and the abort path's first-waiter scan).
    fn pending_remove(&mut self, line: LineId) -> Option<PendingReq> {
        let pos = self.pending.iter().position(|p| p.line == line)?;
        Some(self.pending.remove(pos))
    }

    fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn txn_reads(&self, line: LineId) -> bool {
        self.txn.as_ref().is_some_and(|t| t.read_set.contains(line))
    }

    fn txn_writes(&self, line: LineId) -> bool {
        self.txn
            .as_ref()
            .is_some_and(|t| t.write_set.contains(line))
    }

    /// Files `msg` in the stalled queue, stamped with the per-cache
    /// arrival counter.
    fn stall(&mut self, line: LineId, msg: Msg) {
        self.stall_stamp += 1;
        let stamp = self.stall_stamp;
        self.stalled.push((stamp, line, msg));
    }
}

/// Directory state for one line.
#[derive(Debug, Clone)]
enum DirState {
    Invalid,
    Shared(SharerSet),
    /// Sole clean-or-dirty owner under MESI-E; the directory cannot tell
    /// E from M after a silent upgrade, so it forwards requests exactly
    /// as for Modified.
    Exclusive(usize),
    Modified(usize),
    /// Transient: a Fwd-GetS was sent to the previous owner and the
    /// directory is waiting for its writeback before serving further
    /// requests for this line.
    AwaitWb(SharerSet),
}

#[derive(Debug)]
struct DirEntry {
    state: DirState,
    mem: u64,
    /// Requests that arrived during a transient state, replayed in order.
    queued: VecDeque<(usize, Msg)>,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            state: DirState::Invalid,
            mem: 0,
            queued: VecDeque::new(),
        }
    }
}

/// The directory (shared LLC slice): a dense array over the line arena.
#[derive(Debug, Default)]
struct Directory {
    entries: Vec<DirEntry>,
}

impl Directory {
    fn entry(&mut self, line: LineId) -> &mut DirEntry {
        let need = line as usize + 1;
        if self.entries.len() < need {
            self.entries.resize_with(need, DirEntry::default);
        }
        &mut self.entries[line as usize]
    }
}

/// Scheduler events.
#[derive(Debug)]
enum Event {
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
    /// configured hit latency. See [`Sim::try_fast_path`].
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
struct EventQ {
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
    fn new() -> Self {
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
    fn push(&mut self, clock: u64, time: u64, seq: u64, ev: Event) {
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
    fn pop(&mut self, clock: u64) -> Option<(u64, Event)> {
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

/// A memory operation as issued by a thread.
#[derive(Debug, Clone, Copy)]
pub enum OpKind {
    Read(u64),
    Write(u64, u64),
    Cas(u64, u64, u64),
    Faa(u64, u64),
    Swap(u64, u64),
    Delay(u64),
    TxBegin,
    TxEnd,
    TxAbort(u8),
    /// Block until a `TickGate` component releases this core (or consume
    /// a banked release immediately). Not permitted inside a transaction.
    WaitTick,
}

impl OpKind {
    /// Dense index into [`crate::stats::OP_KINDS`].
    fn name_id(&self) -> usize {
        match self {
            OpKind::Read(..) => 0,
            OpKind::Write(..) => 1,
            OpKind::Cas(..) => 2,
            OpKind::Faa(..) => 3,
            OpKind::Swap(..) => 4,
            OpKind::Delay(..) => 5,
            OpKind::TxBegin => 6,
            OpKind::TxEnd => 7,
            OpKind::TxAbort(..) => 8,
            OpKind::WaitTick => 9,
        }
    }
}

/// What the engine reports back to a blocked thread.
#[derive(Debug, Clone, Copy)]
pub enum OpOutcome {
    /// Operation completed with this value (CAS reports 1/0; commit 1).
    Val(u64),
    /// The enclosing transaction aborted with this status word.
    Aborted(u32),
}

/// A completed thread resumption: deliver `outcome` to `core`, whose local
/// clock becomes `time`.
#[derive(Debug)]
pub struct Resume {
    pub core: usize,
    pub time: u64,
    pub outcome: OpOutcome,
}

/// The deterministic machine surface a [`crate::component::Component`]
/// sees during its tick. Deliberately narrow: no RNG, no direct cache or
/// directory mutation — everything a component can do is expressible as
/// the existing abort/resume machinery, so attaching components never
/// perturbs state they did not explicitly act on.
pub struct CompCtx<'a> {
    sim: &'a mut Sim,
    /// The ticking component's spine index (for trace attribution).
    comp: usize,
    /// The ticking component's stable name.
    name: &'static str,
}

impl CompCtx<'_> {
    /// Current simulated time, cycles.
    pub fn now(&self) -> u64 {
        self.sim.clock
    }

    /// Number of application cores (excluding the bootstrap core).
    pub fn cores(&self) -> usize {
        self.sim.cfg.cores
    }

    /// True if `core`'s thread is inside a hardware transaction.
    pub fn in_txn(&self, core: usize) -> bool {
        self.sim.caches[core].in_txn()
    }

    /// Fires an interrupt at `core`. A victim inside a transaction takes
    /// a `txn::INTERRUPT` abort and resumes `cost` cycles later (the
    /// handler runs before the abort is delivered); a victim outside one
    /// absorbs the handler with no engine-visible effect (its timing is
    /// dominated by whatever protocol event it is blocked on). Returns
    /// whether a transaction was actually aborted.
    pub fn interrupt(&mut self, core: usize, cost: u64) -> bool {
        assert!(
            core < self.sim.cfg.cores,
            "component {:?} interrupted core {core}, but the machine has {} cores",
            self.name,
            self.sim.cfg.cores
        );
        self.sim.stats.interrupts_fired += 1;
        self.sim.trace_comp(self.comp, self.name, "interrupt", core);
        if !self.sim.caches[core].in_txn() {
            return false;
        }
        self.sim.stats.tx_aborts_interrupt += 1;
        let cost = cost.max(1);
        self.sim.abort_txn_at(core, txn::INTERRUPT, cost);
        true
    }

    /// Releases `core`'s `wait_tick()`: resumes the thread if it is
    /// blocked in one, otherwise banks the tick for the next call.
    /// Returns whether a thread was released (vs. banked).
    pub fn release_tick(&mut self, core: usize) -> bool {
        assert!(
            core < self.sim.cfg.cores,
            "component {:?} released core {core}, but the machine has {} cores",
            self.name,
            self.sim.cfg.cores
        );
        if self.sim.caches[core].op_state == OpState::TickWait {
            self.sim.trace_comp(self.comp, self.name, "release", core);
            let now = self.sim.clock;
            self.sim.resume_at(core, now, OpOutcome::Val(0));
            true
        } else {
            self.sim.trace_comp(self.comp, self.name, "bank", core);
            self.sim.caches[core].ticks_banked += 1;
            false
        }
    }
}

/// The protocol engine. Owned and driven by [`crate::machine`].
pub struct Sim {
    pub cfg: Arc<MachineConfig>,
    clock: u64,
    seq: u64,
    events: EventQ,
    lines: LineArena,
    dir: Directory,
    caches: Vec<Cache>,
    /// Operation each core's thread has issued and not yet begun.
    op_inbox: Vec<Option<OpKind>>,
    /// Thread resumptions produced by event processing; drained by the
    /// machine layer after each `step`.
    pub resumes: Vec<Resume>,
    pub stats: Stats,
    pub trace: Vec<TraceEvent>,
    rng: SimRng,
    check_countdown: u32,
    /// Earliest time each directory slice can accept its next request,
    /// indexed by home socket. Under `HomePolicy::Fixed` every line maps
    /// to the socket-0 slot, which is exactly the old single-slice
    /// occupancy; the distributed policies give each socket's slice its
    /// own pipeline, as on real parts.
    dir_free_at: Vec<u64>,
    /// Number of sockets the topology spans.
    nsockets: usize,
    /// First-touch home assignments (`HomePolicy::FirstTouch` only):
    /// line address → socket of the first core whose request for it hit
    /// the interconnect. A separate map rather than the line arena so
    /// the policy cannot perturb intern order.
    first_touch: FxHashMap<u64, usize>,
    /// Earliest time each cache can serve its next incoming request.
    cache_free_at: Vec<u64>,
    /// Number of `Deliver`-to-core events currently in the wheel, per
    /// core. A core with zero in-flight messages and an issue time `t <
    /// clock + hop_min` provably receives nothing before `t` — the
    /// fast-path non-interference gate.
    inflight_to: Vec<u32>,
    /// Minimum one-way hop latency, precomputed for the fast-path gate.
    hop_min: u64,
    /// Reusable buffer for released stalled messages.
    stall_scratch: Vec<(u64, LineId, Msg)>,
    /// Reusable buffer for directory-queued request replay.
    wb_scratch: VecDeque<(usize, Msg)>,
    /// The component spine (see [`crate::component`]): index 0 is the
    /// fused core complex, index 1 the directory, then one live actor
    /// per `MachineConfig::components` spec. Ticks arrive as
    /// `Event::CompTick` in ordinary `(time, seq)` order.
    comps: Vec<Box<dyn Component>>,
    /// True when any configured component can abort a transaction
    /// asynchronously (an interrupt source). Gates the fast path for
    /// transactional ops: with an async abort possible between
    /// submission and issue, they must take the slow path so the abort
    /// is observed at issue (and fast-path on/off stays bit-exact).
    has_async_abort: bool,
}

impl Sim {
    pub fn new(cfg: Arc<MachineConfig>) -> Self {
        // +1 for the bootstrap core used by the setup phase.
        let ncaches = cfg.cores + 1;
        let caches = (0..ncaches).map(|c| Cache::new(cfg.socket_of(c))).collect();
        // The component spine. Cores and the directory are registered
        // first — they are the built-in, message-driven components whose
        // ticks are fused into the Deliver/IssueOp dispatch, so they
        // request no ticks of their own. Configured actors follow in
        // declaration order, which (with the shared seq counter) fixes
        // the firing order of same-cycle ticks.
        let mut comps: Vec<Box<dyn Component>> = vec![
            Box::new(component::CoreComplex),
            Box::new(component::DirectoryUnit),
        ];
        for spec in &cfg.components {
            comps.push(component::build(spec, cfg.cores));
        }
        let has_async_abort = cfg
            .components
            .iter()
            .any(|s| matches!(s, ComponentSpec::Interrupt { .. }));
        let nsockets = cfg.sockets();
        let mut sim = Sim {
            rng: SimRng::seed_from_u64(cfg.seed),
            clock: 0,
            seq: 0,
            events: EventQ::new(),
            lines: LineArena::default(),
            dir: Directory::default(),
            caches,
            op_inbox: vec![None; ncaches],
            resumes: Vec::new(),
            stats: Stats::default(),
            trace: Vec::new(),
            check_countdown: 0,
            dir_free_at: vec![0; nsockets],
            nsockets,
            first_touch: FxHashMap::default(),
            cache_free_at: vec![0; ncaches],
            inflight_to: vec![0; ncaches],
            hop_min: cfg.hop_intra.min(cfg.hop_cross),
            stall_scratch: Vec::new(),
            wb_scratch: VecDeque::new(),
            comps,
            has_async_abort,
            cfg,
        };
        // Schedule every component's first tick. With no configured
        // components this pushes nothing (the built-ins never tick), so
        // the seq stream — and every determinism golden — is untouched.
        for i in 0..sim.comps.len() {
            if let Some(t) = sim.comps[i].next_tick(0) {
                sim.push(t, Event::CompTick { comp: i as u32 });
            }
        }
        sim
    }

    /// Current simulated time, cycles.
    pub fn now(&self) -> u64 {
        self.clock
    }

    fn push(&mut self, time: u64, ev: Event) {
        debug_assert!(time >= self.clock, "event scheduled in the past");
        if let Event::Deliver {
            to: Node::Core(c), ..
        } = ev
        {
            self.inflight_to[c] += 1;
        }
        self.seq += 1;
        self.events.push(self.clock, time, self.seq, ev);
    }

    /// Home socket of the directory slice serving `addr`. `toucher` is
    /// the core on the other end of the directory leg — the assignee
    /// under the first-touch policy (the first directory-bound message
    /// for any line is its requester's GetS/GetM, so the entry a later
    /// Dir→core reply looks up always exists by then).
    fn home_socket_of(&mut self, addr: u64, toucher: usize) -> usize {
        match self.cfg.home_policy {
            HomePolicy::Fixed => 0,
            HomePolicy::Interleave => {
                (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.nsockets
            }
            HomePolicy::FirstTouch => {
                let s = self.caches[toucher].socket;
                *self.first_touch.entry(addr).or_insert(s)
            }
        }
    }

    fn send(&mut self, src: Node, dst: Node, msg: Msg) {
        let sent = self.clock;
        // A directory leg is priced at the line's home socket; the
        // core↔core legs (Fwd data transfers) never consult the home.
        let core_of = |n: Node| match n {
            Node::Core(c) => Some(c),
            Node::Dir => None,
        };
        let toucher = core_of(src).or(core_of(dst)).unwrap_or(0);
        let socket_of = |sim: &mut Self, n: Node| match n {
            Node::Core(c) => sim.caches[c].socket,
            Node::Dir => sim.home_socket_of(msg.line(), toucher),
        };
        let s_src = socket_of(self, src);
        let s_dst = socket_of(self, dst);
        if s_src == s_dst {
            self.stats.hops_intra += 1;
        } else {
            self.stats.hops_cross += 1;
            if matches!(src, Node::Dir) || matches!(dst, Node::Dir) {
                self.stats.dir_hops_cross += 1;
            }
        }
        let recv = sent + self.cfg.hop(s_src, s_dst);
        if self.cfg.trace {
            self.trace.push(TraceEvent::Msg {
                sent,
                recv,
                src: src.to_string(),
                dst: dst.to_string(),
                kind: msg.kind(),
                line: msg.line(),
            });
        }
        self.stats.count_msg(msg.kind_id());
        self.push(recv, Event::Deliver { to: dst, msg });
    }

    fn trace_tx(&mut self, core: usize, what: &'static str, detail: u64) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::Tx {
                time: self.clock,
                core,
                what,
                detail,
            });
        }
    }

    fn resume_at(&mut self, core: usize, time: u64, outcome: OpOutcome) {
        debug_assert_ne!(self.caches[core].op_state, OpState::Idle);
        self.caches[core].op_state = OpState::Idle;
        self.resumes.push(Resume {
            core,
            time,
            outcome,
        });
    }

    /// Hands the engine a thread's next operation, issued at the thread's
    /// local time `at`. When the fast path admits the operation (see
    /// [`Sim::try_fast_path`]) its outcome is decided here, at
    /// submission, and a stand-in event delivers it at the issue time.
    pub fn submit_op(&mut self, core: usize, at: u64, op: OpKind) {
        assert!(
            self.op_inbox[core].is_none(),
            "core {core} already has an op"
        );
        assert_eq!(self.caches[core].op_state, OpState::Idle);
        let mut t = at.max(self.clock) + self.cfg.op_cycles;
        // A thread's local time may lag the event clock (the clock keeps
        // advancing while the thread runs user code), so `at < now()` is
        // legitimate — but the *issue* must never land in the simulator's
        // past. The clamp above guarantees it; assert the guarantee so a
        // future fast-path change cannot silently schedule backwards.
        debug_assert!(t >= self.clock, "operation issued into the past");
        // Scheduler-choice perturbation: stretch the issue latency so a
        // different ready core wins the next engine slot. Only IssueOp
        // times are perturbed — in-flight protocol messages keep their
        // modelled latencies, so the protocol stays well-formed and both
        // schedulers consume the RNG in the same (submit) order. Drawn
        // before the fast-path attempt so the RNG stream is one draw per
        // submission regardless of which path the op takes.
        if self.cfg.sched_perturb > 0 {
            t += self.rng.gen_range_inclusive(0, self.cfg.sched_perturb);
        }
        if self.cfg.fast_path {
            if self.try_fast_path(core, at, t, op) {
                return;
            }
            self.stats.fastpath_fallbacks += 1;
        }
        self.caches[core].op_state = OpState::Inbox;
        self.op_inbox[core] = Some(op);
        self.push(t, Event::IssueOp { core });
    }

    /// Attempts to retire `op` through the fast path: a local hit whose
    /// outcome is decided *at submission*, skipping the inbox, the
    /// `begin_op` checks, the line re-intern, and the store dispatch the
    /// slow path runs per operation. Hits (reads; transactional writes on
    /// owned lines) have their effects applied immediately and are
    /// finished off by a single trivial [`Event::FastHit`]; owned
    /// RMWs/stores go through [`Event::FastRmw`], which enters the
    /// ordinary `start_rmw` window at the issue time. Returns false
    /// (having changed nothing) if any admission condition fails; the
    /// caller then takes the full path. `t` is the already-perturbed
    /// issue time.
    ///
    /// The conditions are chosen so the fast path is *bit-exact* with the
    /// slow path (DESIGN.md §12 gives the full argument):
    ///
    /// * the core is quiescent — no pending requests, no stalled
    ///   messages, no RMW window, no deferred op, no pending abort;
    /// * the op is a pure local hit (S/E/M read; E/M write or RMW outside
    ///   a transaction; transactional read, or transactional write with
    ///   ownership held) that sends no messages on the slow path;
    /// * no coherence message can reach this core before the issue time
    ///   `t`: none is in flight to it (`inflight_to == 0`), and any
    ///   message *created* after this submission is processed at some
    ///   event time `≥ clock` and so arrives `≥ clock + hop_min > t`.
    ///   Before `t`, then, nothing can invalidate the decision taken at
    ///   submission; at or after `t`, the slow path has applied the same
    ///   mutations, so arrivals observe identical state either way.
    ///
    /// Event-order parity is structural, not conditional: the stand-in
    /// event is pushed at the very point the slow path pushes `IssueOp`
    /// (so it carries the same `(time, seq)` key), and `FastRmw` pushes
    /// `RmwDone` from inside `start_rmw` at `t` exactly as the slow path
    /// does — every interleaving with other events, stalls, and resumes
    /// is preserved. A hit's effects land at submission instead of at
    /// `t`; the difference is unobservable because nothing arrives in
    /// between.
    fn try_fast_path(&mut self, core: usize, at: u64, t: u64, op: OpKind) -> bool {
        let Some(addr) = op_line(&op) else {
            // Delays draw jitter from the RNG; transaction begin/end/abort
            // commit, trace, and may draw the spurious-abort RNG. All take
            // the slow path.
            return false;
        };
        // Non-interference gate first — it is two loads and rejects most
        // contended submissions before the per-core scans and the line
        // lookup below: nothing in flight to this core, and the issue
        // time close enough that nothing new can arrive before it.
        if self.inflight_to[core] != 0 || t >= self.clock + self.hop_min {
            return false;
        }
        {
            let c = &self.caches[core];
            if !c.pending.is_empty()
                || !c.stalled.is_empty()
                || c.rmw_busy
                || c.pending_abort.is_some()
                || c.deferred.is_some()
            {
                return false;
            }
        }
        // A line never touched by anyone is Invalid everywhere: a miss.
        let Some(line) = self.lines.get(addr) else {
            return false;
        };
        let (state, in_txn) = {
            let c = &self.caches[core];
            (c.state(line), c.in_txn())
        };
        // An interrupt component can abort this transaction *between*
        // submission and the issue time `t` — the one asynchronous event
        // the non-interference gate cannot exclude, because it arrives by
        // component tick rather than coherence message. Transactional ops
        // then must take the slow path, where `begin_op` observes the
        // pended abort at issue (and fast-path on/off stays bit-exact
        // under interrupt components).
        if in_txn && self.has_async_abort {
            return false;
        }
        let cap = self.cfg.tx_capacity_lines;
        // `None` = hit shape (effects applied now, one `FastHit` event);
        // `Some(waiter)` = RMW shape (a `FastRmw` event enters the
        // ordinary `start_rmw` window at `t`).
        let rmw_waiter: Option<Waiter> = match op {
            OpKind::Read(_) => {
                if state == CState::Invalid {
                    return false;
                }
                if in_txn && cap > 0 {
                    let tx = self.caches[core].txn.as_ref().unwrap();
                    let grow = usize::from(!tx.read_set.contains(line));
                    if tx.read_set.len() + tx.write_set.len() + grow > cap {
                        return false; // would capacity-abort: slow path
                    }
                }
                None
            }
            OpKind::Write(..) if in_txn => {
                if !state.writable() {
                    return false;
                }
                if cap > 0 {
                    let tx = self.caches[core].txn.as_ref().unwrap();
                    let grow = usize::from(!tx.write_set.contains(line));
                    if tx.read_set.len() + tx.write_set.len() + grow > cap {
                        return false;
                    }
                }
                None
            }
            OpKind::Write(_, v) => {
                if !state.writable() {
                    return false;
                }
                Some(Waiter::Write(v))
            }
            OpKind::Cas(_, old, new) => {
                // RMW inside a transaction is unsupported (slow path
                // panics); outside one it needs ownership.
                if in_txn || !state.writable() {
                    return false;
                }
                Some(Waiter::Cas { old, new })
            }
            OpKind::Faa(_, v) => {
                if in_txn || !state.writable() {
                    return false;
                }
                Some(Waiter::Faa(v))
            }
            OpKind::Swap(_, v) => {
                if in_txn || !state.writable() {
                    return false;
                }
                Some(Waiter::Swap(v))
            }
            _ => return false,
        };
        debug_assert!(t >= at && t >= self.clock, "fast-path issue in the past");

        // Admitted. The slow path counts the op when it issues; counting
        // at submission instead leaves the totals identical.
        self.stats.count_op(op.name_id());
        self.stats.fastpath_hits += 1;
        self.caches[core].op_state = OpState::Inbox;
        if let Some(waiter) = rmw_waiter {
            self.push(t, Event::FastRmw { core, line, waiter });
            return true;
        }
        // Hit shape: apply the op's effects now (nothing observes this
        // core before `t`) and precompute the result.
        let c = &mut self.caches[core];
        let result = match op {
            OpKind::Read(_) => {
                if in_txn {
                    c.set_flag(line, F_TR, true);
                    c.txn.as_mut().unwrap().read_set.insert(line);
                }
                c.value(line)
            }
            OpKind::Write(_, v) => {
                debug_assert!(in_txn);
                c.txn.as_mut().unwrap().write_set.insert(line);
                c.set_state(line, CState::Modified);
                if !c.flag(line, F_TW) {
                    c.cleans[line as usize] = c.values[line as usize];
                    c.set_flag(line, F_TW, true);
                }
                c.values[line as usize] = v;
                0
            }
            _ => unreachable!("ineligible op admitted to the fast path"),
        };
        self.push(t, Event::FastHit { core, result });
        true
    }

    /// True if any event remains.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Diagnostic for the machine layer's deadlock assertion: names every
    /// core still owing a response when the event queue runs dry, with a
    /// hint for the common misconfiguration (a `wait_tick()` with no
    /// `TickGate` firings left to release it).
    pub fn stuck_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (c, cache) in self.caches.iter().enumerate() {
            if cache.op_state != OpState::Idle {
                let _ = write!(s, " core {c} is {:?};", cache.op_state);
            }
        }
        if s.contains("TickWait") {
            s.push_str(
                " a TickWait core blocks in wait_tick() until a TickGate component \
                 releases it — configure one with enough firings (period/count)",
            );
        }
        s
    }

    /// Processes the next event; returns false if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.events.pop(self.clock) else {
            return false;
        };
        debug_assert!(time >= self.clock);
        self.clock = time;
        self.stats.events += 1;
        match ev {
            Event::Deliver { to, msg } => match to {
                Node::Dir => self.dir_handle(msg),
                Node::Core(c) => {
                    self.inflight_to[c] -= 1;
                    self.cache_handle(c, msg);
                }
            },
            Event::IssueOp { core } => {
                let op = self.op_inbox[core].take().expect("no op in inbox");
                debug_assert_eq!(self.caches[core].op_state, OpState::Inbox);
                self.caches[core].op_state = OpState::Current;
                self.begin_op(core, op);
            }
            Event::RmwDone { core, gen } => {
                if self.caches[core].gen == gen {
                    self.rmw_done(core);
                }
            }
            Event::DelayDone { core, gen } => {
                if self.caches[core].gen == gen {
                    debug_assert_eq!(self.caches[core].op_state, OpState::Delaying);
                    self.resume_at(core, self.clock, OpOutcome::Val(0));
                }
            }
            Event::FastHit { core, result } => {
                debug_assert_eq!(self.caches[core].op_state, OpState::Inbox);
                self.caches[core].op_state = OpState::Current;
                // A component interrupt can abort the enclosing
                // transaction while the stand-in event is pending (the
                // admission gate keeps transactional ops off the fast
                // path when that is possible, but deliver the abort
                // rather than a stale value if it ever happens —
                // mirroring `begin_op`).
                if let Some(status) = self.caches[core].pending_abort.take() {
                    self.resume_at(core, self.clock, OpOutcome::Aborted(status));
                } else {
                    let done = self.clock + self.cfg.hit_cycles;
                    self.resume_at(core, done, OpOutcome::Val(result));
                }
            }
            Event::FastRmw { core, line, waiter } => {
                debug_assert_eq!(self.caches[core].op_state, OpState::Inbox);
                // RMW shapes are only admitted outside transactions, and
                // a core blocked on its own op cannot enter one — so no
                // abort can be pending here.
                debug_assert!(
                    self.caches[core].pending_abort.is_none(),
                    "abort pended against a non-transactional fast-path RMW"
                );
                self.caches[core].op_state = OpState::Current;
                // M, or E silently upgraded by the store (MESI-E) —
                // mirrors the owned branch of `op_store`.
                self.caches[core].set_state(line, CState::Modified);
                self.start_rmw(core, line, waiter);
            }
            Event::CompTick { comp } => self.comp_tick(comp as usize),
        }
        if self.cfg.check_invariants {
            if self.check_countdown == 0 {
                self.check_invariants();
                self.check_countdown = 63;
            } else {
                self.check_countdown -= 1;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Component spine
    // ------------------------------------------------------------------

    /// Dispatches one component tick: runs `tick` at the current clock
    /// and reschedules from `next_tick`. The component is moved out of
    /// its slot for the duration of the call (a tombstone stands in) so
    /// it can mutate the simulator through [`CompCtx`].
    fn comp_tick(&mut self, i: usize) {
        self.stats.comp_ticks += 1;
        let mut c = std::mem::replace(
            &mut self.comps[i],
            Box::new(component::Tombstone) as Box<dyn Component>,
        );
        let now = self.clock;
        c.tick(
            now,
            &mut CompCtx {
                sim: self,
                comp: i,
                name: c.name(),
            },
        );
        if let Some(t) = c.next_tick(now) {
            debug_assert!(
                t > now,
                "component {:?} rescheduled its tick into the past or present \
                 (next {t} <= now {now}); ticks must strictly advance",
                c.name()
            );
            self.push(t, Event::CompTick { comp: i as u32 });
        }
        self.comps[i] = c;
    }

    fn trace_comp(&mut self, comp: usize, name: &'static str, what: &'static str, core: usize) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::Comp {
                time: self.clock,
                comp,
                name,
                what,
                core,
            });
        }
    }

    // ------------------------------------------------------------------
    // Thread-operation entry points
    // ------------------------------------------------------------------

    fn begin_op(&mut self, core: usize, op: OpKind) {
        self.stats.count_op(op.name_id());
        // A transaction aborted while the thread was computing locally is
        // reported at its next operation.
        if let Some(status) = self.caches[core].pending_abort.take() {
            self.resume_at(core, self.clock, OpOutcome::Aborted(status));
            return;
        }
        // MSHR merge: a memory operation on a line with an in-flight
        // (headless) request waits for that request rather than issuing a
        // second one.
        if let Some(addr) = op_line(&op) {
            let line = self.lines.intern(addr);
            let cache = &mut self.caches[core];
            if cache.pending_on(line) {
                debug_assert!(
                    cache
                        .pending
                        .iter()
                        .find(|p| p.line == line)
                        .unwrap()
                        .waiter
                        .is_none(),
                    "thread already blocked on this line"
                );
                cache.deferred = Some(op);
                cache.deferred_line = line;
                cache.op_state = OpState::PendingWait;
                return;
            }
        }
        self.begin_op_dispatch(core, op);
    }

    /// Second half of [`begin_op`]: the operation dispatch, also entered
    /// directly when a deferred op is re-issued at request completion.
    fn begin_op_dispatch(&mut self, core: usize, op: OpKind) {
        match op {
            OpKind::Read(addr) => self.op_read(core, addr),
            OpKind::Write(addr, v) => self.op_store(core, addr, Waiter::Write(v)),
            OpKind::Cas(addr, old, new) => self.op_store(core, addr, Waiter::Cas { old, new }),
            OpKind::Faa(addr, v) => self.op_store(core, addr, Waiter::Faa(v)),
            OpKind::Swap(addr, v) => self.op_store(core, addr, Waiter::Swap(v)),
            OpKind::Delay(cycles) => {
                // Apply the configured timing noise (see
                // `MachineConfig::delay_jitter_pct`): real cores never
                // sleep for exactly N cycles, and the spread is what lets
                // one TxCAS winner abort the others mid-delay (§4.1).
                let jitter = if self.cfg.delay_jitter_pct > 0 && cycles > 4 {
                    let span = cycles * self.cfg.delay_jitter_pct / 100;
                    if span > 0 {
                        self.rng.gen_range_inclusive(0, span)
                    } else {
                        0
                    }
                } else {
                    0
                };
                let gen = {
                    let c = &mut self.caches[core];
                    c.gen += 1;
                    c.op_state = OpState::Delaying;
                    c.gen
                };
                self.push(self.clock + cycles + jitter, Event::DelayDone { core, gen });
            }
            OpKind::TxBegin => self.op_txbegin(core),
            OpKind::TxEnd => self.op_txend(core),
            OpKind::TxAbort(code) => {
                assert!(self.caches[core].txn.is_some(), "xabort outside txn");
                self.abort_txn(core, txn::explicit(code));
            }
            OpKind::WaitTick => {
                assert!(
                    !self.caches[core].in_txn(),
                    "wait_tick() inside a transaction: a tick release is an external \
                     resume and cannot be part of a transaction's atomic window"
                );
                let c = &mut self.caches[core];
                if c.ticks_banked > 0 {
                    c.ticks_banked -= 1;
                    self.resume_at(core, self.clock, OpOutcome::Val(0));
                } else {
                    c.op_state = OpState::TickWait;
                }
            }
        }
    }

    fn op_read(&mut self, core: usize, addr: u64) {
        let line = self.lines.intern(addr);
        let in_txn = self.caches[core].in_txn();
        let hit = {
            let cache = &mut self.caches[core];
            if cache.state(line) != CState::Invalid {
                if in_txn {
                    cache.set_flag(line, F_TR, true);
                }
                Some(cache.value(line))
            } else {
                None
            }
        };
        if in_txn {
            self.caches[core]
                .txn
                .as_mut()
                .unwrap()
                .read_set
                .insert(line);
            if self.txn_over_capacity(core) {
                self.abort_txn(core, txn::CAPACITY);
                return;
            }
        }
        if let Some(v) = hit {
            let done = self.clock + self.cfg.hit_cycles;
            self.resume_at(core, done, OpOutcome::Val(v));
            return;
        }
        let cache = &mut self.caches[core];
        debug_assert!(!cache.pending_on(line), "duplicate request for line");
        cache.pending.push(PendingReq {
            line,
            is_getm: false,
            have_data: false,
            value: 0,
            acks_expected: None,
            acks_got: 0,
            got_excl: false,
            waiter: Some(Waiter::Read),
        });
        cache.op_state = OpState::PendingWait;
        self.send(
            Node::Core(core),
            Node::Dir,
            Msg::GetS {
                line: addr,
                from: core,
            },
        );
    }

    /// All write-permission operations: plain store, CAS/FAA/SWAP, and
    /// transactional writes.
    fn op_store(&mut self, core: usize, addr: u64, waiter: Waiter) {
        let line = self.lines.intern(addr);
        let in_txn = self.caches[core].in_txn();
        if in_txn {
            // Inside a transaction the only permitted store is the
            // transactional plain write; the paper's algorithms never RMW
            // inside a transaction.
            let v = match waiter {
                Waiter::Write(v) => v,
                _ => panic!("atomic RMW inside a transaction is not supported"),
            };
            self.caches[core]
                .txn
                .as_mut()
                .unwrap()
                .write_set
                .insert(line);
            if self.txn_over_capacity(core) {
                self.abort_txn(core, txn::CAPACITY);
                return;
            }
            if self.caches[core].state(line).writable() {
                // Ownership already held (M, or E with a silent upgrade):
                // buffer the write transactionally.
                let cache = &mut self.caches[core];
                cache.set_state(line, CState::Modified);
                if !cache.flag(line, F_TW) {
                    cache.cleans[line as usize] = cache.values[line as usize];
                    cache.set_flag(line, F_TW, true);
                }
                cache.values[line as usize] = v;
                let done = self.clock + self.cfg.hit_cycles;
                self.resume_at(core, done, OpOutcome::Val(0));
                return;
            }
            let cache = &mut self.caches[core];
            debug_assert!(!cache.pending_on(line), "duplicate request for line");
            cache.pending.push(PendingReq {
                line,
                is_getm: true,
                have_data: false,
                value: 0,
                acks_expected: None,
                acks_got: 0,
                got_excl: false,
                waiter: Some(Waiter::TxWrite(v)),
            });
            cache.op_state = OpState::PendingWait;
            self.send(
                Node::Core(core),
                Node::Dir,
                Msg::GetM {
                    line: addr,
                    from: core,
                },
            );
            return;
        }

        if self.caches[core].state(line).writable() {
            // M, or E silently upgraded by the store (MESI-E).
            self.caches[core].set_state(line, CState::Modified);
            self.start_rmw(core, line, waiter);
            return;
        }
        let cache = &mut self.caches[core];
        debug_assert!(!cache.pending_on(line), "duplicate request for line");
        cache.pending.push(PendingReq {
            line,
            is_getm: true,
            have_data: false,
            value: 0,
            acks_expected: None,
            acks_got: 0,
            got_excl: false,
            waiter: Some(waiter),
        });
        cache.op_state = OpState::PendingWait;
        self.send(
            Node::Core(core),
            Node::Dir,
            Msg::GetM {
                line: addr,
                from: core,
            },
        );
    }

    /// Begins executing an RMW/store on an owned line; incoming Fwd
    /// requests stall until `rmw_done` (§3.2: the core defers coherence
    /// messages that would revoke ownership until the RMW completes).
    fn start_rmw(&mut self, core: usize, line: LineId, waiter: Waiter) {
        let cost = match waiter {
            Waiter::Write(_) => self.cfg.hit_cycles,
            _ => self.cfg.rmw_cycles,
        };
        let cache = &mut self.caches[core];
        debug_assert!(cache.state(line).writable());
        cache.rmw_busy = true;
        cache.rmw_line = line;
        cache.gen += 1;
        let gen = cache.gen;
        let value = cache.value(line);
        debug_assert!(
            !cache.pending_on(line),
            "RMW on a line with an in-flight request"
        );
        cache.pending.push(PendingReq {
            line,
            is_getm: true,
            have_data: true,
            value,
            acks_expected: Some(0),
            acks_got: 0,
            got_excl: false,
            waiter: Some(waiter),
        });
        cache.op_state = OpState::RmwExec;
        self.push(self.clock + cost, Event::RmwDone { core, gen });
    }

    /// The RMW execution window ended: apply the operation, resume the
    /// thread, and serve stalled requests.
    fn rmw_done(&mut self, core: usize) {
        let result = {
            let cache = &mut self.caches[core];
            cache.rmw_busy = false;
            let line = cache.rmw_line;
            let p = cache
                .pending_remove(line)
                .expect("rmw_done without pending");
            debug_assert_eq!(p.line, line);
            let cur = cache.value(line);
            let (result, newval) = match p.waiter.expect("rmw_done without waiter") {
                Waiter::Read => (cur, cur),
                Waiter::Write(v) => (0, v),
                Waiter::Cas { old, new } => {
                    if cur == old {
                        (1, new)
                    } else {
                        (0, cur)
                    }
                }
                Waiter::Faa(v) => (cur, cur.wrapping_add(v)),
                Waiter::Swap(v) => (cur, v),
                Waiter::TxWrite(_) => unreachable!("tx writes do not use rmw_done"),
            };
            cache.ensure(line);
            cache.values[line as usize] = newval;
            result
        };
        self.resume_at(core, self.clock, OpOutcome::Val(result));
        self.drain_stalled(core);
    }

    /// True if `core`'s running transaction has outgrown the modelled
    /// transactional capacity (`tx_capacity_lines` distinct read-set plus
    /// write-set entries; 0 = unbounded).
    fn txn_over_capacity(&self, core: usize) -> bool {
        let limit = self.cfg.tx_capacity_lines;
        if limit == 0 {
            return false;
        }
        self.caches[core]
            .txn
            .as_ref()
            .is_some_and(|t| t.read_set.len() + t.write_set.len() > limit)
    }

    fn op_txbegin(&mut self, core: usize) {
        let cache = &mut self.caches[core];
        match &mut cache.txn {
            None => {
                // Reuse the previous transaction's (cleared) set storage.
                let mut t = cache.txn_spare.take().unwrap_or_default();
                t.depth = 1;
                cache.txn = Some(t);
            }
            Some(t) => t.depth += 1, // flat nesting
        }
        let depth = cache.txn.as_ref().unwrap().depth;
        self.trace_tx(core, "xbegin", depth as u64);
        let done = self.clock + self.cfg.xbegin_cycles;
        self.resume_at(core, done, OpOutcome::Val(0));
    }

    fn op_txend(&mut self, core: usize) {
        let cache = &mut self.caches[core];
        let t = cache.txn.as_mut().expect("xend outside txn");
        if t.depth > 1 {
            // Closing a nested transaction commits nothing by itself.
            t.depth -= 1;
            let done = self.clock + self.cfg.xend_cycles;
            self.resume_at(core, done, OpOutcome::Val(0));
            return;
        }
        // A transactional write blocks until ownership, so the thread has
        // no request pending here (headless orphans may).
        debug_assert!(
            cache.thread_pending_line().is_none(),
            "xend with a thread-owned pending request"
        );
        self.commit_txn(core);
    }

    fn commit_txn(&mut self, core: usize) {
        if self.cfg.spurious_abort_prob > 0.0 && self.rng.gen_bool(self.cfg.spurious_abort_prob) {
            self.stats.tx_aborts_spurious += 1;
            self.abort_txn(core, txn::SPURIOUS);
            return;
        }
        let cache = &mut self.caches[core];
        let mut t = cache.txn.take().expect("commit without txn");
        for &line in t.read_set.iter().chain(t.write_set.iter()) {
            if (line as usize) < cache.flags.len() {
                cache.flags[line as usize] &= !(F_TR | F_TW);
            }
        }
        t.read_set.clear();
        t.write_set.clear();
        cache.txn_spare = Some(t);
        self.stats.tx_commits += 1;
        self.trace_tx(core, "commit", 0);
        let done = self.clock + self.cfg.xend_cycles;
        self.resume_at(core, done, OpOutcome::Val(1));
        self.drain_stalled(core);
    }

    /// Aborts `core`'s running transaction with the given status bits
    /// (RETRY/NESTED are added here).
    fn abort_txn(&mut self, core: usize, status: u32) {
        self.abort_txn_at(core, status, 0);
    }

    /// [`abort_txn`] with `extra` cycles added to the victim's resume
    /// time — the interrupt path uses it to charge the handler cost
    /// before the abort is delivered. An abort pended against an inbox
    /// op is reported at issue as usual (the handler overlaps the time
    /// the op was queued anyway).
    fn abort_txn_at(&mut self, core: usize, status: u32, extra: u64) {
        let Some(mut t) = self.caches[core].txn.take() else {
            return;
        };
        let mut status = status | txn::RETRY;
        if t.depth >= 2 {
            status |= txn::NESTED;
        }
        {
            let cache = &mut self.caches[core];
            // Roll back transactional writes applied to owned lines.
            for &line in t.write_set.iter() {
                let i = line as usize;
                if i < cache.flags.len() && cache.flags[i] & F_TW != 0 {
                    cache.values[i] = cache.cleans[i];
                    cache.flags[i] &= !F_TW;
                }
            }
            for &line in t.read_set.iter() {
                let i = line as usize;
                if i < cache.flags.len() {
                    cache.flags[i] &= !F_TR;
                }
            }
            t.read_set.clear();
            t.write_set.clear();
            cache.txn_spare = Some(t);
        }
        if txn::is_explicit(status) {
            self.stats.tx_aborts_explicit += 1;
        } else if txn::is_conflict(status) {
            self.stats.tx_aborts_conflict += 1;
        } else if txn::is_capacity(status) {
            self.stats.tx_aborts_capacity += 1;
        }
        self.trace_tx(core, "abort", status as u64);

        // Restore the thread at the checkpoint: exactly one response is
        // owed whenever op_state != Idle.
        let resume = self.clock + extra;
        let cache = &mut self.caches[core];
        match cache.op_state {
            OpState::Current => {
                // The abort was triggered from within the thread's own op
                // (xabort, or spurious at xend).
                self.resume_at(core, resume, OpOutcome::Aborted(status));
            }
            OpState::Delaying => {
                cache.gen += 1; // cancel the DelayDone wake-up
                self.resume_at(core, resume, OpOutcome::Aborted(status));
            }
            OpState::PendingWait => {
                // Cancel the waiter (or the deferred op); any in-flight
                // request continues headless.
                if cache.deferred.take().is_none() {
                    let p = cache
                        .pending
                        .iter_mut()
                        .find(|p| p.waiter.is_some())
                        .expect("PendingWait without pending or deferred");
                    p.waiter = None;
                }
                self.resume_at(core, resume, OpOutcome::Aborted(status));
            }
            OpState::Inbox => {
                // Report when the op issues.
                cache.pending_abort = Some(status);
            }
            OpState::RmwExec => unreachable!("RMW inside transaction"),
            OpState::TickWait => {
                unreachable!("wait_tick() inside a transaction (rejected at dispatch)")
            }
            OpState::Idle => unreachable!("abort with no outstanding thread op"),
        }
        self.drain_stalled(core);
    }

    // ------------------------------------------------------------------
    // Directory
    // ------------------------------------------------------------------

    fn dir_handle(&mut self, msg: Msg) {
        let from = match msg {
            Msg::GetS { from, .. } | Msg::GetM { from, .. } | Msg::WbData { from, .. } => from,
            other => panic!("directory cannot handle {other:?}"),
        };
        // Directory occupancy: each home socket's slice retires at most
        // one request per `dir_occupancy` cycles; simultaneous arrivals
        // are naturally staggered, exactly like a real LLC slice. Under
        // the fixed policy every line shares the socket-0 slice.
        if self.cfg.dir_occupancy > 0 {
            let home = self.home_socket_of(msg.line(), from);
            if self.clock < self.dir_free_at[home] {
                let at = self.dir_free_at[home];
                self.push(at, Event::Deliver { to: Node::Dir, msg });
                return;
            }
            self.dir_free_at[home] = self.clock + self.cfg.dir_occupancy;
        }
        let line = self.lines.intern(msg.line());
        let e = self.dir.entry(line);
        // Queue behind a transient state (except the writeback that
        // resolves it).
        if matches!(e.state, DirState::AwaitWb(_)) && !matches!(msg, Msg::WbData { .. }) {
            e.queued.push_back((from, msg));
            return;
        }
        self.dir_dispatch(from, line, msg);
    }

    fn dir_dispatch(&mut self, from: usize, line: LineId, msg: Msg) {
        let addr = msg.line();
        match msg {
            Msg::GetS { .. } => {
                let e = self.dir.entry(line);
                // Move the state out instead of cloning it; every arm
                // writes the successor state back.
                match std::mem::replace(&mut e.state, DirState::Invalid) {
                    DirState::Invalid => {
                        let v = e.mem;
                        if self.cfg.mesi_exclusive {
                            // Sole reader: grant Exclusive (MESI-E).
                            e.state = DirState::Exclusive(from);
                            self.send(
                                Node::Dir,
                                Node::Core(from),
                                Msg::Data {
                                    line: addr,
                                    value: v,
                                    acks: 0,
                                    excl: true,
                                },
                            );
                        } else {
                            e.state = DirState::Shared(SharerSet::one(from));
                            self.send(
                                Node::Dir,
                                Node::Core(from),
                                Msg::Data {
                                    line: addr,
                                    value: v,
                                    acks: 0,
                                    excl: false,
                                },
                            );
                        }
                    }
                    DirState::Shared(mut s) => {
                        let v = e.mem;
                        s.insert(from);
                        e.state = DirState::Shared(s);
                        self.send(
                            Node::Dir,
                            Node::Core(from),
                            Msg::Data {
                                line: addr,
                                value: v,
                                acks: 0,
                                excl: false,
                            },
                        );
                    }
                    DirState::Exclusive(owner) | DirState::Modified(owner) => {
                        assert_ne!(owner, from, "owner re-requesting GetS");
                        e.state = DirState::AwaitWb(SharerSet::two(owner, from));
                        self.send(
                            Node::Dir,
                            Node::Core(owner),
                            Msg::FwdGetS {
                                line: addr,
                                requester: from,
                            },
                        );
                    }
                    DirState::AwaitWb(_) => unreachable!("queued in dir_handle"),
                }
            }
            Msg::GetM { .. } => {
                let e = self.dir.entry(line);
                match std::mem::replace(&mut e.state, DirState::Invalid) {
                    DirState::Invalid => {
                        let v = e.mem;
                        e.state = DirState::Modified(from);
                        self.send(
                            Node::Dir,
                            Node::Core(from),
                            Msg::Data {
                                line: addr,
                                value: v,
                                acks: 0,
                                excl: false,
                            },
                        );
                    }
                    DirState::Shared(s) => {
                        let v = e.mem;
                        e.state = DirState::Modified(from);
                        let acks = s.iter().filter(|&&c| c != from).count() as u64;
                        // The data response and all invalidations leave
                        // back-to-back: the concurrency that makes HTM CAS
                        // failures scale (§3.3). `s` is owned here (moved
                        // out of the entry), so the fan-out iterates it
                        // directly — no per-call `others` Vec.
                        self.send(
                            Node::Dir,
                            Node::Core(from),
                            Msg::Data {
                                line: addr,
                                value: v,
                                acks,
                                excl: false,
                            },
                        );
                        for &c in s.iter() {
                            if c != from {
                                self.send(
                                    Node::Dir,
                                    Node::Core(c),
                                    Msg::Inv {
                                        line: addr,
                                        requester: from,
                                    },
                                );
                            }
                        }
                    }
                    DirState::Exclusive(owner) | DirState::Modified(owner) => {
                        assert_ne!(owner, from, "owner re-requesting GetM");
                        e.state = DirState::Modified(from);
                        self.send(
                            Node::Dir,
                            Node::Core(owner),
                            Msg::FwdGetM {
                                line: addr,
                                requester: from,
                            },
                        );
                    }
                    DirState::AwaitWb(_) => unreachable!("queued in dir_handle"),
                }
            }
            Msg::WbData { value, .. } => {
                let e = self.dir.entry(line);
                let DirState::AwaitWb(sharers) = std::mem::replace(&mut e.state, DirState::Invalid)
                else {
                    panic!("unexpected WbData");
                };
                e.mem = value;
                e.state = DirState::Shared(sharers);
                // Replay requests that queued behind the writeback. Swap
                // the bucket into a reusable scratch deque; the replayed
                // messages are GetS/GetM only (WbData is never queued), so
                // a replay can re-queue behind a fresh AwaitWb but never
                // re-enter this arm while the scratch is in use.
                debug_assert!(self.wb_scratch.is_empty());
                std::mem::swap(&mut self.wb_scratch, &mut e.queued);
                while let Some((_, m)) = self.wb_scratch.pop_front() {
                    self.dir_handle(m);
                }
            }
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Cache message handling
    // ------------------------------------------------------------------

    fn cache_handle(&mut self, core: usize, msg: Msg) {
        // Controller occupancy for *serving requests*: a cache retires at
        // most one incoming Fwd/Inv per `cache_occupancy` cycles. Response
        // messages (Data/InvAck) are pipelined and bypass the limit.
        if self.cfg.cache_occupancy > 0
            && matches!(
                msg,
                Msg::Inv { .. } | Msg::FwdGetS { .. } | Msg::FwdGetM { .. }
            )
        {
            let free_at = self.cache_free_at[core];
            if self.clock < free_at {
                self.push(
                    free_at,
                    Event::Deliver {
                        to: Node::Core(core),
                        msg,
                    },
                );
                return;
            }
            self.cache_free_at[core] = self.clock + self.cfg.cache_occupancy;
        }
        let line = self.lines.intern(msg.line());
        match msg {
            Msg::Data {
                value, acks, excl, ..
            } => self.on_data(core, line, value, acks, excl),
            Msg::DataOwner { value, .. } => self.on_data(core, line, value, 0, false),
            Msg::InvAck { .. } => {
                let p = self.caches[core]
                    .pending_get_mut(line)
                    .expect("stray InvAck");
                p.acks_got += 1;
                self.try_complete_pending(core, line);
            }
            Msg::Inv { requester, .. } => self.on_inv(core, line, msg.line(), requester),
            Msg::FwdGetS { requester, .. } => self.on_fwd_gets(core, line, requester),
            Msg::FwdGetM { requester, .. } => self.on_fwd_getm(core, line, requester),
            other => panic!("cache cannot handle {other:?}"),
        }
    }

    fn on_data(&mut self, core: usize, line: LineId, value: u64, acks: u64, excl: bool) {
        let p = self.caches[core].pending_get_mut(line).expect("stray Data");
        p.have_data = true;
        p.value = value;
        p.got_excl = excl;
        // DataOwner carries no ack expectation; Data from the directory
        // does. Both paths may deliver acks before data, so only overwrite
        // if unset (the directory message is authoritative).
        if p.acks_expected.is_none() {
            p.acks_expected = Some(acks);
        }
        self.try_complete_pending(core, line);
    }

    fn try_complete_pending(&mut self, core: usize, line: LineId) {
        let done = {
            let cache = &self.caches[core];
            match cache.pending.iter().find(|p| p.line == line) {
                Some(p) => p.have_data && p.acks_expected.is_some_and(|a| p.acks_got >= a),
                None => false,
            }
        };
        if !done {
            return;
        }
        let p = self.caches[core].pending_remove(line).unwrap();
        {
            let cache = &mut self.caches[core];
            cache.ensure(line);
            let s = if p.is_getm {
                CState::Modified
            } else if p.got_excl {
                CState::Exclusive
            } else {
                CState::Shared
            };
            cache.flags[line as usize] = s as u8; // also clears tr/tw
            cache.values[line as usize] = p.value;
        }

        match p.waiter {
            None => {
                // Headless: the transaction that issued this GetM aborted
                // (§3.3: pending GetM requests of failed TxCASs are handled
                // asynchronously by the cache controller). Take ownership
                // with the received data and serve whoever stalled; if the
                // thread meanwhile issued an op for this very line (MSHR
                // merge), re-dispatch it now.
                self.drain_stalled(core);
                let cache = &mut self.caches[core];
                if cache.deferred.is_some() && cache.deferred_line == line {
                    let op = cache.deferred.take().unwrap();
                    cache.op_state = OpState::Current;
                    self.begin_op_dispatch(core, op);
                }
            }
            Some(Waiter::Read) => {
                if self.caches[core].in_txn() {
                    self.caches[core].set_flag(line, F_TR, true);
                }
                self.resume_at(core, self.clock, OpOutcome::Val(p.value));
                self.drain_stalled(core);
            }
            Some(Waiter::TxWrite(v)) => {
                // Ownership acquired for a transactional write. Apply the
                // buffered store; requester-wins conflicts that arrived
                // during the wait already aborted us (waiter would be
                // None). Stalled Fwd requests stay stalled until
                // commit/abort — see the commit-atomicity note above.
                debug_assert!(self.caches[core].in_txn());
                let cache = &mut self.caches[core];
                cache.cleans[line as usize] = cache.values[line as usize];
                cache.values[line as usize] = v;
                cache.set_flag(line, F_TW, true);
                self.resume_at(core, self.clock, OpOutcome::Val(0));
            }
            Some(w) => {
                // A non-transactional RMW/store: execute it now (the §3.2
                // read-modify-write window).
                let cost = match w {
                    Waiter::Write(_) => self.cfg.hit_cycles,
                    _ => self.cfg.rmw_cycles,
                };
                let cache = &mut self.caches[core];
                cache.pending.push(PendingReq {
                    waiter: Some(w),
                    ..p
                });
                cache.rmw_busy = true;
                cache.rmw_line = line;
                cache.gen += 1;
                let gen = cache.gen;
                cache.op_state = OpState::RmwExec;
                self.push(self.clock + cost, Event::RmwDone { core, gen });
            }
        }
    }

    fn on_inv(&mut self, core: usize, line: LineId, addr: u64, requester: usize) {
        // Invalidations are never stalled (that would deadlock the
        // requester counting acks). This is exactly why HTM failures are
        // concurrent: every read-phase sharer processes its Inv — and
        // aborts — in parallel (§3.3, Figure 2b).
        let conflict = {
            let cache = &mut self.caches[core];
            let conflict = cache.txn_reads(line) || cache.txn_writes(line);
            if (line as usize) < cache.flags.len() {
                cache.set_state(line, CState::Invalid);
            }
            conflict
        };
        self.send(
            Node::Core(core),
            Node::Core(requester),
            Msg::InvAck { line: addr },
        );
        if conflict {
            self.abort_txn(core, txn::CONFLICT);
        }
    }

    fn on_fwd_gets(&mut self, core: usize, line: LineId, requester: usize) {
        let (pending_here, txn_wrote, owns) = {
            let cache = &self.caches[core];
            (
                cache.pending_on(line),
                cache.txn_writes(line),
                cache.state(line).writable(),
            )
        };
        let addr = self.lines.addrs[line as usize];

        if txn_wrote && pending_here {
            // The remote read hit the window in which our transactional
            // write waits for its GetM to complete: the tripped writer
            // (§3.4, Figure 3).
            if self.cfg.microarch_fix {
                // §3.4.1: the core is effectively blocked at _xend with a
                // single pending GetM; stall the read until commit.
                self.stats.fix_stalls += 1;
                self.stats.stalls += 1;
                self.caches[core].stall(
                    line,
                    Msg::FwdGetS {
                        line: addr,
                        requester,
                    },
                );
                return;
            }
            self.stats.tripped_writers += 1;
            self.abort_txn(core, txn::CONFLICT);
            // We still become owner when the GetM completes (headless);
            // serve the read then.
            self.stats.stalls += 1;
            self.caches[core].stall(
                line,
                Msg::FwdGetS {
                    line: addr,
                    requester,
                },
            );
            return;
        }
        if txn_wrote && owns {
            // Commit window (ownership held, xend imminent): stall — see
            // the commit-atomicity note in the module docs.
            self.stats.stalls += 1;
            self.caches[core].stall(
                line,
                Msg::FwdGetS {
                    line: addr,
                    requester,
                },
            );
            return;
        }
        if pending_here || self.caches[core].rmw_busy {
            self.stats.stalls += 1;
            self.caches[core].stall(
                line,
                Msg::FwdGetS {
                    line: addr,
                    requester,
                },
            );
            return;
        }
        // A remote read of a line we own but only transactionally *read*
        // (or do not have in any transaction) is not a conflict.
        self.serve_fwd_gets(core, line, requester);
    }

    fn serve_fwd_gets(&mut self, core: usize, line: LineId, requester: usize) {
        let addr = self.lines.addrs[line as usize];
        let v = {
            let cache = &mut self.caches[core];
            assert!(cache.state(line).writable(), "Fwd-GetS to non-owner");
            debug_assert!(
                !cache.flag(line, F_TW),
                "serving a transactionally written line"
            );
            cache.set_state(line, CState::Shared);
            cache.value(line)
        };
        self.send(
            Node::Core(core),
            Node::Core(requester),
            Msg::DataOwner {
                line: addr,
                value: v,
            },
        );
        self.send(
            Node::Core(core),
            Node::Dir,
            Msg::WbData {
                line: addr,
                value: v,
                from: core,
            },
        );
    }

    fn on_fwd_getm(&mut self, core: usize, line: LineId, requester: usize) {
        let (pending_here, txn_wrote, txn_read) = {
            let cache = &self.caches[core];
            (
                cache.pending_on(line),
                cache.txn_writes(line),
                cache.txn_reads(line),
            )
        };
        if pending_here || self.caches[core].rmw_busy || txn_wrote {
            // Stall until our own request / RMW window / commit completes
            // (Figure 2a's C2; for transactions this preserves the §3.3
            // winner, whose commit is atomic with GetM completion).
            let addr = self.lines.addrs[line as usize];
            self.stats.stalls += 1;
            self.caches[core].stall(
                line,
                Msg::FwdGetM {
                    line: addr,
                    requester,
                },
            );
            return;
        }
        if txn_read {
            // We own a line the running transaction read; the remote
            // writer wins.
            self.abort_txn(core, txn::CONFLICT);
        }
        self.serve_fwd_getm(core, line, requester);
    }

    fn serve_fwd_getm(&mut self, core: usize, line: LineId, requester: usize) {
        let addr = self.lines.addrs[line as usize];
        let v = {
            let cache = &mut self.caches[core];
            assert!(cache.state(line).writable(), "Fwd-GetM to non-owner");
            debug_assert!(
                !cache.flag(line, F_TW),
                "handing off a transactionally written line"
            );
            cache.set_state(line, CState::Invalid);
            cache.value(line)
        };
        self.send(
            Node::Core(core),
            Node::Core(requester),
            Msg::DataOwner {
                line: addr,
                value: v,
            },
        );
    }

    /// Re-examines stalled messages after a condition that stalled them
    /// (per-line pending request, RMW window, transactional write) clears.
    /// Unblocked messages are re-delivered through the regular handlers —
    /// so every conflict/stall condition is re-evaluated from scratch —
    /// at the current simulated time.
    fn drain_stalled(&mut self, core: usize) {
        if self.caches[core].rmw_busy || self.caches[core].stalled.is_empty() {
            return; // the atomic window blocks the whole cache
        }
        // The stalled vector is append-ordered, so a stable partition
        // releases unblocked messages in arrival-stamp order — exactly
        // the order the old whole-queue scan produced.
        let mut freed = std::mem::take(&mut self.stall_scratch);
        debug_assert!(freed.is_empty());
        {
            let cache = &mut self.caches[core];
            let pending = &cache.pending;
            let txn = &cache.txn;
            cache.stalled.retain(|&(stamp, line, msg)| {
                let blocked = pending.iter().any(|p| p.line == line)
                    || txn.as_ref().is_some_and(|t| t.write_set.contains(line));
                if blocked {
                    true
                } else {
                    freed.push((stamp, line, msg));
                    false
                }
            });
        }
        for &(_, _, msg) in &freed {
            self.push(
                self.clock,
                Event::Deliver {
                    to: Node::Core(core),
                    msg,
                },
            );
        }
        freed.clear();
        self.stall_scratch = freed;
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Single-writer/multi-reader: at most one cache in M per line.
    fn check_invariants(&self) {
        let mut owners: Vec<Option<usize>> = vec![None; self.lines.len()];
        for (i, c) in self.caches.iter().enumerate() {
            for (line, &f) in c.flags.iter().enumerate() {
                if decode_state(f).writable() {
                    if let Some(prev) = owners[line].replace(i) {
                        let addr = self.lines.addrs[line];
                        panic!("line {addr:#x}: two M/E holders: C{prev} and C{i}");
                    }
                }
            }
        }
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

/// The target line of a memory operation, if it has one.
fn op_line(op: &OpKind) -> Option<u64> {
    match *op {
        OpKind::Read(line)
        | OpKind::Write(line, _)
        | OpKind::Cas(line, _, _)
        | OpKind::Faa(line, _)
        | OpKind::Swap(line, _) => Some(line),
        OpKind::Delay(_)
        | OpKind::TxBegin
        | OpKind::TxEnd
        | OpKind::TxAbort(_)
        | OpKind::WaitTick => None,
    }
}
