//! Thread-operation entry points: op dispatch, the RMW window, and HTM
//! begin/commit/abort.

use super::cache::{CState, OpState, PendingReq, Waiter};
use super::event::Event;
use super::{op_line, LineId, OpKind, OpOutcome, Sim};
use crate::msg::{Msg, Node};
use absmem::txn;

impl Sim {
    pub(super) fn begin_op(&mut self, core: usize, op: OpKind) {
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

    /// Second half of [`Self::begin_op`]: the operation dispatch, also entered
    /// directly when a deferred op is re-issued at request completion.
    pub(super) fn begin_op_dispatch(&mut self, core: usize, op: OpKind) {
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
        if self.txn_overflows(core, line, false) {
            self.abort_txn(core, txn::CAPACITY);
            return;
        }
        let cache = &mut self.caches[core];
        if let Some(t) = &mut cache.txn {
            t.read_set.insert(line);
        }
        if cache.state(line) == CState::Invalid {
            self.issue_miss(core, line, addr, Waiter::Read);
            return;
        }
        let v = self.lines.values[line as usize];
        let done = self.clock + self.cfg.hit_cycles;
        self.resume_at(core, done, OpOutcome::Val(v));
    }

    /// All write-permission operations: plain store, CAS/FAA/SWAP, and
    /// transactional writes.
    fn op_store(&mut self, core: usize, addr: u64, waiter: Waiter) {
        let line = self.lines.intern(addr);
        let owned = self.caches[core].state(line).writable();
        if !self.caches[core].in_txn() {
            if owned {
                self.start_rmw(core, line, waiter);
            } else {
                self.issue_miss(core, line, addr, waiter);
            }
            return;
        }
        // Inside a transaction the only permitted store is the
        // transactional plain write; the paper's algorithms never RMW
        // inside a transaction.
        let Waiter::Write(v) = waiter else {
            panic!("atomic RMW inside a transaction is not supported");
        };
        if self.txn_overflows(core, line, true) {
            self.abort_txn(core, txn::CAPACITY);
            return;
        }
        let cache = &mut self.caches[core];
        cache.txn.as_mut().unwrap().write_set.insert(line);
        if owned {
            cache.tx_write(&mut self.lines.values, line, v);
            let done = self.clock + self.cfg.hit_cycles;
            self.resume_at(core, done, OpOutcome::Val(0));
        } else {
            self.issue_miss(core, line, addr, Waiter::TxWrite(v));
        }
    }

    /// Blocks `core`'s thread on a miss: files the request `waiter` waits
    /// on and sends the directory a GetS (a read) or a GetM (anything
    /// that needs write permission).
    fn issue_miss(&mut self, core: usize, line: LineId, addr: u64, waiter: Waiter) {
        let is_getm = !matches!(waiter, Waiter::Read);
        let cache = &mut self.caches[core];
        debug_assert!(!cache.pending_on(line), "duplicate request for line");
        cache.pending.push(PendingReq {
            line,
            is_getm,
            have_data: false,
            value: 0,
            acks_expected: None,
            acks_got: 0,
            waiter: Some(waiter),
        });
        cache.op_state = OpState::PendingWait;
        let msg = if is_getm {
            Msg::GetM {
                line: addr,
                from: core,
            }
        } else {
            Msg::GetS {
                line: addr,
                from: core,
            }
        };
        self.send(Node::Core(core), Node::Dir, msg);
    }

    /// Begins executing an RMW/store on an owned (M) line. Incoming Fwd
    /// requests stall until `rmw_done` (§3.2: the core defers coherence
    /// messages that would revoke ownership until the RMW completes).
    pub(super) fn start_rmw(&mut self, core: usize, line: LineId, waiter: Waiter) {
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
        let value = self.lines.values[line as usize];
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
            waiter: Some(waiter),
        });
        cache.op_state = OpState::RmwExec;
        self.push(self.clock + cost, Event::RmwDone { core, gen });
    }

    /// The RMW execution window ended: apply the operation, resume the
    /// thread, and serve stalled requests.
    pub(super) fn rmw_done(&mut self, core: usize) {
        let result = {
            let cache = &mut self.caches[core];
            cache.rmw_busy = false;
            let line = cache.rmw_line;
            let p = cache
                .pending_remove(line)
                .expect("rmw_done without pending");
            debug_assert_eq!(p.line, line);
            let cur = self.lines.values[line as usize];
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
            self.lines.values[line as usize] = newval;
            result
        };
        self.resume_at(core, self.clock, OpOutcome::Val(result));
        self.drain_stalled(core);
    }

    /// True if adding `line` to `core`'s running transaction — to its
    /// write set if `write`, else its read set — would outgrow the
    /// modelled transactional capacity: `tx_capacity_lines` distinct
    /// read-set plus write-set entries, 0 = unbounded. False outside a
    /// transaction. The slow path aborts on it; the fast path falls back.
    pub(super) fn txn_overflows(&self, core: usize, line: LineId, write: bool) -> bool {
        let limit = self.cfg.tx_capacity_lines;
        let Some(t) = self.caches[core].txn.as_ref().filter(|_| limit > 0) else {
            return false;
        };
        let set = if write { &t.write_set } else { &t.read_set };
        let grow = usize::from(!set.contains(line));
        t.read_set.len() + t.write_set.len() + grow > limit
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
        let ppm = self.cfg.spurious_abort_ppm;
        if ppm > 0 && self.rng.gen_bool(ppm as f64 / 1e6) {
            self.stats.tx_aborts_spurious += 1;
            self.abort_txn(core, txn::SPURIOUS);
            return;
        }
        self.caches[core]
            .end_txn(false, &mut self.lines.values)
            .expect("commit without txn");
        self.stats.tx_commits += 1;
        self.trace_tx(core, "commit", 0);
        let done = self.clock + self.cfg.xend_cycles;
        self.resume_at(core, done, OpOutcome::Val(1));
        self.drain_stalled(core);
    }

    /// Aborts `core`'s running transaction with the given status bits
    /// (RETRY/NESTED are added here).
    pub(super) fn abort_txn(&mut self, core: usize, status: u32) {
        self.abort_txn_at(core, status, 0);
    }

    /// [`Self::abort_txn`] with `extra` cycles added to the victim's resume
    /// time — the interrupt path uses it to charge the handler cost
    /// before the abort is delivered. An abort pended against an inbox
    /// op is reported at issue as usual (the handler overlaps the time
    /// the op was queued anyway).
    pub(super) fn abort_txn_at(&mut self, core: usize, status: u32, extra: u64) {
        let Some(depth) = self.caches[core].end_txn(true, &mut self.lines.values) else {
            return;
        };
        let mut status = status | txn::RETRY;
        if depth >= 2 {
            status |= txn::NESTED;
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
}
