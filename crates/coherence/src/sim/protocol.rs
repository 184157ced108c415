//! Cache-side coherence message handlers and the stall queue.

use super::cache::{CState, OpState, Waiter, F_TW};
use super::event::Event;
use super::{LineId, OpOutcome, Sim};
use crate::msg::{Msg, Node};
use absmem::txn;

impl Sim {
    pub(super) fn cache_handle(&mut self, core: usize, msg: Msg) {
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
            Msg::Data { value, acks, .. } => self.on_data(core, line, value, acks),
            Msg::DataOwner { value, .. } => self.on_data(core, line, value, 0),
            Msg::InvAck { .. } => {
                let p = self.caches[core]
                    .pending_get_mut(line)
                    .expect("stray InvAck");
                p.acks_got += 1;
                self.try_complete_pending(core, line);
            }
            Msg::Inv { requester, .. } => self.on_inv(core, line, msg.line(), requester),
            Msg::FwdGetS { .. } | Msg::FwdGetM { .. } => self.on_fwd(core, line, msg),
            other => panic!("cache cannot handle {other:?}"),
        }
    }

    fn on_data(&mut self, core: usize, line: LineId, value: u64, acks: u64) {
        let p = self.caches[core].pending_get_mut(line).expect("stray Data");
        p.have_data = true;
        p.value = value;
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
            } else {
                CState::Shared
            };
            // A reply carries the line's value: no core writes a line
            // while a copy of it is valid or on its way (but see `on_inv`).
            debug_assert_eq!(self.lines.values[line as usize], p.value);
            cache.flags[line as usize] = s as u8; // also clears the write mark
            self.lines.values[line as usize] = p.value;
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
                self.resume_at(core, self.clock, OpOutcome::Val(p.value));
                self.drain_stalled(core);
            }
            Some(Waiter::TxWrite(v)) => {
                // Ownership acquired for a transactional write. Apply the
                // buffered store; requester-wins conflicts that arrived
                // during the wait already aborted us (waiter would be
                // None). Stalled Fwd requests stay stalled until
                // commit/abort — see the commit-atomicity note in the
                // `sim` module docs.
                debug_assert!(self.caches[core].in_txn());
                self.caches[core].tx_write(&mut self.lines.values, line, v);
                self.resume_at(core, self.clock, OpOutcome::Val(0));
            }
            // A non-transactional RMW/store: execute it now (the §3.2
            // read-modify-write window).
            Some(w) => self.start_rmw(core, line, w),
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
            // Only sharers are invalidated; an owner is sent a Fwd. A
            // reader's reply reaches it before any later Inv: an Inv
            // overtaking a DataOwner is the IS^D→I race, which the engine
            // does not model, and `MachineConfig::validate` rejects the
            // only hop geometry that allows it (`hop_intra > 2 ×
            // hop_cross` on more than one socket).
            debug_assert!(
                !cache.state(line).writable()
                    && !cache.pending.iter().any(|p| p.line == line && !p.is_getm),
                "Inv for {addr:#x} reached core {core}, which owns it or awaits it as a reader"
            );
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

    /// A Fwd-GetS or Fwd-GetM from the directory: this core owns `line`
    /// and must hand it to the requester — unless a rule below stalls the
    /// request, in which case `msg` itself waits in the stall queue.
    fn on_fwd(&mut self, core: usize, line: LineId, msg: Msg) {
        let (getm, requester) = match msg {
            Msg::FwdGetS { requester, .. } => (false, requester),
            Msg::FwdGetM { requester, .. } => (true, requester),
            other => unreachable!("not a Fwd request: {other:?}"),
        };
        let cache = &self.caches[core];
        let pending_here = cache.pending_on(line);
        let txn_wrote = cache.txn_writes(line);
        let txn_read = cache.txn_reads(line);
        if pending_here || cache.rmw_busy || txn_wrote {
            // Stall until our own request / RMW window / commit completes
            // (Figure 2a's C2; for transactions this preserves the §3.3
            // winner, whose commit is atomic with GetM completion — see
            // the commit-atomicity note in the `sim` module docs).
            if !getm && txn_wrote && pending_here {
                // The remote read hit the window in which our
                // transactional write waits for its GetM to complete: the
                // tripped writer (§3.4, Figure 3). With the §3.4.1 fix the
                // core is effectively blocked at _xend with a single
                // pending GetM and the read simply waits for the commit;
                // without it the writer aborts, still becomes owner when
                // the GetM completes (headless), and serves the read then.
                if self.cfg.microarch_fix {
                    self.stats.fix_stalls += 1;
                } else {
                    self.stats.tripped_writers += 1;
                    self.abort_txn(core, txn::CONFLICT);
                }
            }
            self.stats.stalls += 1;
            self.caches[core].stall(line, msg);
            return;
        }
        if getm && txn_read {
            // We own a line the running transaction read; the remote
            // writer wins. A remote *read* of it is no conflict.
            self.abort_txn(core, txn::CONFLICT);
        }
        // Hand the line over: a Fwd-GetS downgrades our copy to Shared
        // and writes the value back to the directory; a Fwd-GetM
        // invalidates it.
        let addr = self.lines.addrs[line as usize];
        let v = {
            let cache = &mut self.caches[core];
            assert!(cache.state(line).writable(), "{msg:?} to non-owner");
            debug_assert!(
                !cache.flag(line, F_TW),
                "handing off a transactionally written line"
            );
            let next = if getm {
                CState::Invalid
            } else {
                CState::Shared
            };
            cache.set_state(line, next);
            self.lines.values[line as usize]
        };
        self.send(
            Node::Core(core),
            Node::Core(requester),
            Msg::DataOwner {
                line: addr,
                value: v,
            },
        );
        if !getm {
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
    }

    /// Re-examines stalled messages after a condition that stalled them
    /// (per-line pending request, RMW window, transactional write) clears.
    /// Unblocked messages are re-delivered through the regular handlers —
    /// so every conflict/stall condition is re-evaluated from scratch —
    /// at the current simulated time.
    pub(super) fn drain_stalled(&mut self, core: usize) {
        if self.caches[core].rmw_busy || self.caches[core].stalled.is_empty() {
            return; // the atomic window blocks the whole cache
        }
        // A stable partition of the arrival-ordered queue releases the
        // unblocked messages in arrival order.
        let mut freed = std::mem::take(&mut self.stall_scratch);
        debug_assert!(freed.is_empty());
        {
            let cache = &mut self.caches[core];
            let pending = &cache.pending;
            let txn = &cache.txn;
            cache.stalled.retain(|&(line, msg)| {
                let blocked = pending.iter().any(|p| p.line == line)
                    || txn.as_ref().is_some_and(|t| t.write_set.contains(line));
                if !blocked {
                    freed.push(msg);
                }
                blocked
            });
        }
        for &msg in &freed {
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
}
