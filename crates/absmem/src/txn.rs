//! The transactional programming interface, in the control-flow shape of
//! Intel RTM, which the paper's TxCAS pseudocode (Algorithm 1) is written
//! against:
//!
//! * the status bits mirror the RTM `_xbegin` status word TxCAS triages on
//!   (§4.2): explicit vs. conflict aborts, and whether the conflict hit a
//!   *nested* transaction;
//! * [`HtmOps`] is the backend seam: the raw begin/end/abort and fallible
//!   transactional loads, stores and delays;
//! * [`transaction`] is the top-level `_xbegin()`/`_xend()` pair: it runs
//!   the body, commits on success, and returns the abort status word when
//!   the hardware (here: the simulated requester-wins conflict logic)
//!   kills the attempt;
//! * [`nested`] opens a flat-nested inner transaction — TxCAS runs its CAS
//!   *read* in one so that a later abort reveals, via the [`NESTED`]
//!   status bit, whether the CAS *write* had executed yet (§4.2);
//! * aborts unwind as `Err(Abort)` through the body (`?`), standing in for
//!   the hardware's checkpoint restore.
//!
//! TxCAS and the SBQ queue are written once against [`HtmOps`]. Today the
//! `coherence` simulator's `SimCtx` is the only backend (real RTM is fused
//! off on current hardware — see DESIGN.md §1); `asm!`-based RTM bindings
//! would implement the same trait.

use crate::{Addr, ThreadCtx};

/// Abort status bit: the transaction called `tx_abort` itself.
pub const EXPLICIT: u32 = 1 << 0;
/// Abort status bit: retrying may succeed (set on conflicts, like RTM).
pub const RETRY: u32 = 1 << 1;
/// Abort status bit: a data conflict (remote coherence request) aborted the
/// transaction.
pub const CONFLICT: u32 = 1 << 2;
/// Abort status bit: spurious abort (interrupt-like; neither explicit nor a
/// conflict).
pub const SPURIOUS: u32 = 1 << 3;
/// Abort status bit: the transaction's footprint exceeded the modelled
/// transactional capacity (`MachineConfig::tx_capacity_lines`). Mirrors
/// RTM's `_XABORT_CAPACITY`.
pub const CAPACITY: u32 = 1 << 4;
/// Abort status bit: the abort occurred while a *nested* transaction was
/// running. TxCAS uses this to learn that the CAS write step had not yet
/// executed.
pub const NESTED: u32 = 1 << 5;
/// Abort status bit: an external preemption/interrupt component (the
/// simulator's `ComponentSpec::Interrupt`) parked the core mid-transaction.
/// Unlike [`SPURIOUS`] (a probabilistic commit-time model), an interrupt
/// abort is injected at a scheduled machine time, independently of what the
/// victim transaction is doing. Always paired with [`RETRY`].
pub const INTERRUPT: u32 = 1 << 6;

/// Builds a status word for an explicit abort carrying `code` (0..=255).
pub fn explicit(code: u8) -> u32 {
    EXPLICIT | ((code as u32) << 24)
}

/// Extracts the explicit abort code.
pub fn code(status: u32) -> u8 {
    (status >> 24) as u8
}

/// True if the status word reports an explicit (self) abort.
pub fn is_explicit(status: u32) -> bool {
    status & EXPLICIT != 0
}

/// True if the status word reports a data-conflict abort.
pub fn is_conflict(status: u32) -> bool {
    status & CONFLICT != 0
}

/// True if the abort happened inside a nested transaction.
pub fn is_nested(status: u32) -> bool {
    status & NESTED != 0
}

/// True if the status word reports a capacity abort.
pub fn is_capacity(status: u32) -> bool {
    status & CAPACITY != 0
}

/// True if the status word reports a preemption/interrupt abort.
pub fn is_interrupt(status: u32) -> bool {
    status & INTERRUPT != 0
}

/// An in-flight abort, unwound through transaction bodies with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    /// RTM-style status word; see the bit constants in this module.
    pub status: u32,
}

/// Result type of every memory operation performed inside a transaction.
pub type TxResult<T> = Result<T, Abort>;

/// The raw HTM operations a backend must provide, in addition to ordinary
/// shared-memory access.
pub trait HtmOps: ThreadCtx {
    /// Starts a (possibly nested, flat) transaction.
    fn tx_begin(&mut self) -> TxResult<()>;
    /// Commits the innermost transaction; at top level this blocks until
    /// the transactional write's ownership request (GetM) completes — the
    /// store-buffer drain — and can therefore abort.
    fn tx_end(&mut self) -> TxResult<()>;
    /// Self-aborts the running transaction with an 8-bit code; never
    /// returns normally.
    fn tx_abort(&mut self, code: u8) -> Abort;
    /// Transactional load: adds the line to the read set.
    fn tx_read(&mut self, a: Addr) -> TxResult<u64>;
    /// Transactional store: adds the line to the write set.
    fn tx_write(&mut self, a: Addr, v: u64) -> TxResult<()>;
    /// In-transaction delay, interruptible by an abort (the paper's
    /// intra-transaction delay of §4.1 relies on this: a delaying
    /// transaction is aborted the moment a winner's invalidation arrives).
    fn tx_delay(&mut self, cycles: u64) -> TxResult<()>;
}

/// Runs `body` as a top-level hardware transaction.
///
/// Returns `Ok(r)` if the body ran to completion and the commit succeeded,
/// or `Err(status)` with the RTM-style status word if the transaction
/// aborted at any point (conflict, explicit `tx_abort`, or spurious).
/// After an abort all transactional effects have been rolled back, exactly
/// like the hardware register/memory checkpoint restore.
///
/// The body must propagate `Err(Abort)` outward (use `?`); issuing further
/// transactional operations after observing an abort is a logic error.
pub fn transaction<C: HtmOps, R>(
    ctx: &mut C,
    body: impl FnOnce(&mut C) -> TxResult<R>,
) -> Result<R, u32> {
    if let Err(a) = ctx.tx_begin() {
        return Err(a.status);
    }
    match body(ctx) {
        Ok(r) => match ctx.tx_end() {
            Ok(()) => Ok(r),
            Err(a) => Err(a.status),
        },
        Err(a) => Err(a.status),
    }
}

/// Runs `body` as a flat-nested inner transaction; composes with `?`
/// inside a [`transaction`] body. An abort inside the nested region kills
/// the whole (flat) transaction and carries the [`NESTED`] status bit.
pub fn nested<C: HtmOps, R>(ctx: &mut C, body: impl FnOnce(&mut C) -> TxResult<R>) -> TxResult<R> {
    ctx.tx_begin()?;
    let r = body(ctx)?;
    ctx.tx_end()?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_code_roundtrip() {
        let s = explicit(42);
        assert!(is_explicit(s));
        assert!(!is_conflict(s));
        assert_eq!(code(s), 42);
    }

    #[test]
    fn conflict_bits() {
        let s = CONFLICT | RETRY | NESTED;
        assert!(is_conflict(s));
        assert!(is_nested(s));
        assert!(!is_explicit(s));
    }

    #[test]
    fn interrupt_bits_are_retryable_and_distinct() {
        let s = INTERRUPT | RETRY;
        assert!(is_interrupt(s));
        assert!(!is_conflict(s));
        assert!(!is_explicit(s));
        assert!(!is_capacity(s));
        assert_eq!(
            INTERRUPT & (EXPLICIT | RETRY | CONFLICT | SPURIOUS | CAPACITY | NESTED),
            0
        );
    }
}
