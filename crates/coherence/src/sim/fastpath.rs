//! The uncontended fast path: local hits decided at submission.

use super::cache::{CState, OpState, Waiter};
use super::event::Event;
use super::{op_line, OpKind, Sim};

impl Sim {
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
    /// * the op is a pure local hit (S/M read; M write or RMW outside a
    ///   transaction; transactional read, or transactional write with
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
    /// `t`; the difference is unobservable because no message arrives in
    /// between. A component interrupt can: it aborts the transaction,
    /// which rolls the hit's effects back and pends the abort against
    /// the inbox op on either path, and `FastHit` delivers it at `t` just
    /// as `begin_op` would.
    pub(super) fn try_fast_path(&mut self, core: usize, at: u64, t: u64, op: OpKind) -> bool {
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
        // `None` = hit shape (effects applied now, one `FastHit` event);
        // `Some(waiter)` = RMW shape (a `FastRmw` event enters the
        // ordinary `start_rmw` window at `t`). An op that would
        // capacity-abort takes the slow path, which aborts it.
        let rmw_waiter: Option<Waiter> = match op {
            OpKind::Read(_) => {
                if state == CState::Invalid || self.txn_overflows(core, line, false) {
                    return false;
                }
                None
            }
            OpKind::Write(..) if in_txn => {
                if !state.writable() || self.txn_overflows(core, line, true) {
                    return false;
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
                if let Some(t) = &mut c.txn {
                    t.read_set.insert(line);
                }
                self.lines.values[line as usize]
            }
            OpKind::Write(_, v) => {
                c.txn.as_mut().unwrap().write_set.insert(line);
                c.tx_write(&mut self.lines.values, line, v);
                0
            }
            _ => unreachable!("ineligible op admitted to the fast path"),
        };
        self.push(t, Event::FastHit { core, result });
        true
    }
}
