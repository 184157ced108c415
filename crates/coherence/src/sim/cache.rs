//! Per-core cache state: the line states and transactional write marks, the
//! outstanding coherence requests, and the running transaction.

use super::{LineId, OpKind};
use crate::msg::Msg;

/// A small set of line ids (transaction read/write sets). The paper's
/// transactions touch a handful of lines, so a linear-scan vector beats
/// any tree or table — and unlike a hash set it allocates nothing after
/// the first few inserts and iterates in deterministic (insertion) order.
#[derive(Debug, Default)]
pub(super) struct LineSet {
    lines: Vec<LineId>,
}

impl LineSet {
    #[inline]
    pub(super) fn contains(&self, line: LineId) -> bool {
        self.lines.contains(&line)
    }

    #[inline]
    pub(super) fn insert(&mut self, line: LineId) {
        if !self.lines.contains(&line) {
            self.lines.push(line);
        }
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.lines.len()
    }

    pub(super) fn clear(&mut self) {
        self.lines.clear();
    }
}

/// Stable state of a line in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CState {
    Invalid = 0,
    Shared = 1,
    Modified = 2,
}

impl CState {
    /// Can the holder write without a coherence transaction?
    pub(super) fn writable(self) -> bool {
        self == CState::Modified
    }
}

/// Per-line flag byte layout (see [`Cache::flags`]): the two state bits
/// plus the transactional write mark.
pub(super) const F_STATE: u8 = 0b0011;
/// Line is in the running transaction's write set with the write applied
/// (the line's value holds the transactional, uncommitted datum;
/// [`Txn::cleans`] the pre-transaction one).
pub(super) const F_TW: u8 = 0b0100;

#[inline]
pub(super) fn decode_state(flags: u8) -> CState {
    match flags & F_STATE {
        0 => CState::Invalid,
        1 => CState::Shared,
        _ => CState::Modified,
    }
}

/// What the blocked thread wants done when its coherence request completes.
#[derive(Debug, Clone, Copy)]
pub(super) enum Waiter {
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
pub(super) struct PendingReq {
    pub(super) line: LineId,
    pub(super) is_getm: bool,
    pub(super) have_data: bool,
    pub(super) value: u64,
    pub(super) acks_expected: Option<u64>,
    pub(super) acks_got: u64,
    /// `None` once the issuing transaction aborted: the request finishes
    /// headless (the cache still takes ownership — §3.3's pending-GetM
    /// effect — but no thread is resumed).
    pub(super) waiter: Option<Waiter>,
}

/// Running-transaction bookkeeping.
#[derive(Debug, Default)]
pub(super) struct Txn {
    pub(super) depth: u32,
    pub(super) read_set: LineSet,
    pub(super) write_set: LineSet,
    /// The pre-transaction value of each line marked `F_TW`, in marking
    /// order: what an abort restores. Only the owner holding the mark
    /// needs it, so it lives here rather than in a per-line array.
    pub(super) cleans: Vec<(LineId, u64)>,
}

/// Where a core's thread currently is, from the engine's point of view.
/// Exactly one response is owed to the thread whenever the state is not
/// `Idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum OpState {
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
/// one flag byte, dense over the line arena and grown lazily to the
/// highest line this cache has touched. A valid copy's value is the
/// line's one value in the arena (see `LineArena::values`), so a cache
/// costs 1 B per line.
#[derive(Debug)]
pub(super) struct Cache {
    /// Per-line flag byte, indexed by [`LineId`]: bits 0–1 the
    /// [`CState`], bit 2 `F_TW`. Lines beyond the vector are Invalid with
    /// no mark. The read set is kept only in [`Txn::read_set`].
    pub(super) flags: Vec<u8>,
    /// Outstanding coherence requests: at most one the thread waits on
    /// (waiter set / deferred op), plus headless ones. Linear scan.
    pub(super) pending: Vec<PendingReq>,
    /// A thread operation deferred because a (headless) request for its
    /// line is already in flight; re-dispatched at that request's
    /// completion (the MSHR-merge a real core performs).
    pub(super) deferred: Option<OpKind>,
    pub(super) deferred_line: LineId,
    /// Coherence requests stalled behind a pending request / executing RMW
    /// / committing transaction, in arrival order; releases replay
    /// unblocked messages in that order.
    pub(super) stalled: Vec<(LineId, Msg)>,
    /// An RMW is executing (between data arrival and `RmwDone`): incoming
    /// Fwd requests must wait (§3.2).
    pub(super) rmw_busy: bool,
    /// Line the executing RMW targets (valid while `rmw_busy`).
    pub(super) rmw_line: LineId,
    pub(super) txn: Option<Txn>,
    /// Retired transaction bookkeeping kept for reuse, so `xbegin` after
    /// the first never allocates read/write-set storage.
    pub(super) txn_spare: Option<Txn>,
    /// Abort detected while the thread's next op sat in the inbox; reported
    /// when that op issues.
    pub(super) pending_abort: Option<u32>,
    /// Tick-gate releases that arrived while this core was *not* blocked
    /// in `wait_tick()`; the next `wait_tick()` consumes one immediately.
    /// Banking absorbs gate/consumer phase drift without losing ticks.
    pub(super) ticks_banked: u64,
    /// Generation counter for cancellable wakeups (delays, RMW end).
    pub(super) gen: u64,
    pub(super) op_state: OpState,
    pub(super) socket: usize,
}

impl Cache {
    pub(super) fn new(socket: usize) -> Self {
        Cache {
            flags: Vec::new(),
            pending: Vec::new(),
            deferred: None,
            deferred_line: 0,
            stalled: Vec::new(),
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

    /// Grows the flag array to cover `line`.
    #[inline]
    pub(super) fn ensure(&mut self, line: LineId) {
        let need = line as usize + 1;
        if self.flags.len() < need {
            self.flags.resize(need, 0);
        }
    }

    #[inline]
    pub(super) fn state(&self, line: LineId) -> CState {
        decode_state(self.flags.get(line as usize).copied().unwrap_or(0))
    }

    #[inline]
    pub(super) fn set_state(&mut self, line: LineId, s: CState) {
        self.ensure(line);
        let f = &mut self.flags[line as usize];
        *f = (*f & !F_STATE) | s as u8;
    }

    #[inline]
    pub(super) fn flag(&self, line: LineId, bit: u8) -> bool {
        self.flags.get(line as usize).copied().unwrap_or(0) & bit != 0
    }

    /// Buffers a transactional write of `v` to the owned `line` (§3.3):
    /// the first write in the transaction saves the pre-transaction value
    /// for rollback, and `F_TW` marks the value uncommitted. `values` is
    /// the arena's per-line value array, which the owner alone writes.
    pub(super) fn tx_write(&mut self, values: &mut [u64], line: LineId, v: u64) {
        debug_assert_eq!(self.state(line), CState::Modified);
        let i = line as usize;
        if self.flags[i] & F_TW == 0 {
            let t = self
                .txn
                .as_mut()
                .expect("transactional write outside a txn");
            t.cleans.push((line, values[i]));
            self.flags[i] |= F_TW;
        }
        values[i] = v;
    }

    /// The line of the request the thread is currently blocked on, if any.
    pub(super) fn thread_pending_line(&self) -> Option<LineId> {
        self.pending
            .iter()
            .find(|p| p.waiter.is_some())
            .map(|p| p.line)
    }

    #[inline]
    pub(super) fn pending_on(&self, line: LineId) -> bool {
        self.pending.iter().any(|p| p.line == line)
    }

    #[inline]
    pub(super) fn pending_get_mut(&mut self, line: LineId) -> Option<&mut PendingReq> {
        self.pending.iter_mut().find(|p| p.line == line)
    }

    /// Removes and returns the pending request for `line`, preserving the
    /// order of the rest (order is observable through `thread_pending_line`
    /// and the abort path's first-waiter scan).
    pub(super) fn pending_remove(&mut self, line: LineId) -> Option<PendingReq> {
        let pos = self.pending.iter().position(|p| p.line == line)?;
        Some(self.pending.remove(pos))
    }

    pub(super) fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    pub(super) fn txn_reads(&self, line: LineId) -> bool {
        self.txn.as_ref().is_some_and(|t| t.read_set.contains(line))
    }

    pub(super) fn txn_writes(&self, line: LineId) -> bool {
        self.txn
            .as_ref()
            .is_some_and(|t| t.write_set.contains(line))
    }

    /// Ends the running transaction: clears its write marks — restoring
    /// the pre-transaction values into `values` first if `rollback` (an
    /// abort) — and keeps the set storage for the next `xbegin`. Returns
    /// the nesting depth it ended at, or `None` outside a transaction.
    pub(super) fn end_txn(&mut self, rollback: bool, values: &mut [u64]) -> Option<u32> {
        let mut t = self.txn.take()?;
        for &(line, clean) in &t.cleans {
            let f = &mut self.flags[line as usize];
            // A marked line is never handed off (`on_fwd` stalls), so
            // this core still owns it and may restore its value.
            debug_assert!(*f & F_TW != 0 && decode_state(*f) == CState::Modified);
            if rollback {
                values[line as usize] = clean;
            }
            *f &= !F_TW;
        }
        let depth = t.depth;
        t.read_set.clear();
        t.write_set.clear();
        t.cleans.clear();
        self.txn_spare = Some(t);
        Some(depth)
    }

    /// Files `msg` at the back of the stalled queue.
    pub(super) fn stall(&mut self, line: LineId, msg: Msg) {
        self.stalled.push((line, msg));
    }
}
