//! Word-addressed abstract shared memory.
//!
//! The paper's system model (§2) treats memory as an array `m` of 64-bit
//! words supporting `read`, `write`, `FAA`, `SWAP` and `CAS`. Every queue
//! algorithm in this repository is written against that model, via the
//! [`ThreadCtx`] trait, so that *one* implementation of each algorithm runs
//! both
//!
//! * natively, on real `AtomicU64`s with real OS threads (this crate's
//!   [`native`] module), and
//! * on the discrete-event cache-coherence + HTM simulator (the `coherence`
//!   crate), where latency is measured in simulated cycles.
//!
//! Addresses are plain `u64` line/word indices; `0` is `NULL`.
//!
//! The [`txn`] module is the transactional half of the interface: the
//! RTM-shaped [`txn::HtmOps`] trait TxCAS is written against, which the
//! simulator implements.

pub mod native;
pub mod txn;

/// The reserved null address. Allocators never return it.
pub const NULL: u64 = 0;

/// A word address in the abstract memory. A type alias rather than a
/// newtype: the queue algorithms do substantial address arithmetic
/// (field offsets, cell indexing) and the paper's pseudocode is written in
/// terms of raw pointers.
pub type Addr = u64;

/// One thread's handle onto the shared memory. Each participating thread
/// owns exactly one `ThreadCtx`; the context carries the thread id, the
/// allocator cache, and — in the simulator backend — the thread's local
/// clock and cache state.
///
/// All operations are sequentially consistent, matching the paper's model.
pub trait ThreadCtx {
    /// The calling thread's id, dense in `0..nthreads`.
    fn thread_id(&self) -> usize;

    /// Atomic 64-bit load of `m[a]`.
    fn read(&mut self, a: Addr) -> u64;

    /// Atomic 64-bit store of `v` into `m[a]`.
    fn write(&mut self, a: Addr, v: u64);

    /// Compare-and-set: if `m[a] == old`, stores `new` and returns `true`.
    fn cas(&mut self, a: Addr, old: u64, new: u64) -> bool;

    /// Fetch-and-add: returns the previous value of `m[a]` and stores
    /// `m[a] + v` (wrapping).
    fn faa(&mut self, a: Addr, v: u64) -> u64;

    /// Atomic exchange: returns the previous value of `m[a]` and stores `v`.
    fn swap(&mut self, a: Addr, v: u64) -> u64;

    /// Spends `cycles` of compute time without touching shared memory.
    /// Native backend: a calibrated busy-wait. Simulator: advances the
    /// thread's local clock (and is interruptible by a transaction abort).
    fn delay(&mut self, cycles: u64);

    /// Allocates a block of `words` words; never returns [`NULL`]. The
    /// block's contents are *unspecified* (possibly recycled); callers must
    /// initialize every word they read.
    fn alloc(&mut self, words: usize) -> Addr;

    /// Frees a block previously allocated with the same size.
    fn free(&mut self, a: Addr, words: usize);

    /// The thread's current time in cycles (simulated or wall-clock
    /// converted). Only meaningful for measurement, never for algorithm
    /// logic.
    fn now(&self) -> u64;

    /// Blocks until every thread of the run has reached a barrier; used by
    /// phased workloads (pre-fill, then measure; operate, then drain). The
    /// simulator resumes all participants at the same simulated instant;
    /// the native backend uses an OS barrier shared by the thread group.
    /// Panics on a context that was created without a thread group (e.g. a
    /// solo bootstrap context on a group of one is fine; a bare
    /// `NativeHeap::ctx` handle is not). Do not mix barriers with threads
    /// that finish before reaching them.
    fn barrier(&mut self);

    /// Blocks until the backend's tick source releases this thread's next
    /// tick — on the simulator, a `TickGate` component paces the calling
    /// core (timer-driven consumers, DMA-style bulk producers). Backends
    /// without a tick source return immediately (the default), so paced
    /// programs stay portable: pacing is a scheduling constraint, never a
    /// correctness dependency.
    fn wait_tick(&mut self) {}
}

/// How a queue's contended tail CAS is performed. The paper evaluates three
/// strategies on the *same* modular queue: a plain CAS (baselines), a
/// delayed CAS (the SBQ-CAS control), and the HTM-based TxCAS (SBQ-HTM,
/// defined in the `sbq` crate over [`txn::HtmOps`]).
pub trait CasStrategy<C: ?Sized> {
    /// Attempts to change `m[a]` from `old` to `new`, returning whether the
    /// caller's value was installed. Unlike a raw CAS, a strategy is allowed
    /// to spend time (delays, HTM retries) before reporting the outcome, but
    /// it must be linearizable to a single CAS: `false` implies some other
    /// write changed `m[a]` away from `old` during the call.
    fn cas(&self, ctx: &mut C, a: Addr, old: u64, new: u64) -> bool;
}

/// Plain hardware CAS: the strategy used by every baseline queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardCas;

impl<C: ThreadCtx> CasStrategy<C> for StandardCas {
    #[inline]
    fn cas(&self, ctx: &mut C, a: Addr, old: u64, new: u64) -> bool {
        ctx.cas(a, old, new)
    }
}

/// Read–delay–CAS: the paper's SBQ-CAS control variant (§6.1), which has the
/// same delay placement as TxCAS but no HTM. Also the best available
/// approximation of TxCAS on hardware without HTM, which is how the native
/// typed queue uses it.
#[derive(Debug, Clone, Copy)]
pub struct DelayedCas {
    /// Delay inserted before attempting the CAS, in cycles. The paper's
    /// tuned value is ≈270 ns ≈ 600 cycles at 2.2 GHz.
    pub delay_cycles: u64,
}

impl Default for DelayedCas {
    fn default() -> Self {
        DelayedCas { delay_cycles: 600 }
    }
}

impl<C: ThreadCtx> CasStrategy<C> for DelayedCas {
    fn cas(&self, ctx: &mut C, a: Addr, old: u64, new: u64) -> bool {
        if ctx.read(a) != old {
            return false;
        }
        ctx.delay(self.delay_cycles);
        if ctx.cas(a, old, new) {
            return true;
        }
        // A failed CAS here means the location changed; no retry — the
        // modular queue profits from the failure instead.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::native::NativeHeap;
    use super::*;
    use std::sync::Arc;

    #[test]
    fn standard_cas_semantics() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let a = ctx.alloc(1);
        ctx.write(a, 7);
        assert!(StandardCas.cas(&mut ctx, a, 7, 9));
        assert_eq!(ctx.read(a), 9);
        assert!(!StandardCas.cas(&mut ctx, a, 7, 11));
        assert_eq!(ctx.read(a), 9);
    }

    #[test]
    fn delayed_cas_fails_fast_on_stale_old() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let a = ctx.alloc(1);
        ctx.write(a, 1);
        let s = DelayedCas { delay_cycles: 50 };
        assert!(!s.cas(&mut ctx, a, 2, 3), "old mismatch must fail");
        assert!(s.cas(&mut ctx, a, 1, 3));
        assert_eq!(ctx.read(a), 3);
    }
}
