//! Hazard-pointer memory reclamation (Michael, IEEE TPDS 2004) over the
//! abstract word memory.
//!
//! The paper's queues use the epoch scheme of Algorithm 7, but §5.2.2
//! notes the design "is compatible with standard memory reclamation
//! schemes, such as epoch-based memory reclamation or hazard pointers".
//! This module supplies the hazard-pointer alternative so that claim is
//! executable: `baselines::ms_queue_hp` runs the Michael–Scott queue on
//! it, and the reclamation integration tests drive both schemes over the
//! same workloads.
//!
//! Differences from the epoch scheme that matter operationally:
//!
//! * protection is per *pointer*, not per position — a thread announces
//!   up to `k` specific nodes it may dereference;
//! * retirement is thread-local: each thread keeps its own retire list
//!   and scans all hazard slots once the list exceeds a threshold, so
//!   reclamation is wait-free for the reclaimer and never blocks on
//!   stalled peers (a stalled thread strands only the nodes its own
//!   hazards name, plus its unscanned retire list).

use absmem::{Addr, ThreadCtx, NULL};

/// Shared hazard-slot table: `threads × k` announcement words in the
/// abstract memory.
#[derive(Debug, Clone, Copy)]
pub struct HazardDomain {
    base: Addr,
    threads: usize,
    k: usize,
}

impl HazardDomain {
    /// Allocates the slot table (all empty) from a single thread.
    pub fn new<C: ThreadCtx>(ctx: &mut C, threads: usize, k: usize) -> Self {
        assert!(threads > 0 && k > 0);
        let base = ctx.alloc(threads * k);
        for i in 0..(threads * k) as u64 {
            ctx.write(base + i, NULL);
        }
        HazardDomain { base, threads, k }
    }

    /// Rebuilds a handle from a published base address.
    pub fn from_base(base: Addr, threads: usize, k: usize) -> Self {
        HazardDomain { base, threads, k }
    }

    /// The table's base address (for publication).
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Hazard slots per thread.
    pub fn k(&self) -> usize {
        self.k
    }

    fn slot_addr(&self, thread: usize, slot: usize) -> Addr {
        debug_assert!(thread < self.threads && slot < self.k);
        self.base + (thread * self.k + slot) as u64
    }

    /// Announces the pointer read from `*src` in `slot` and validates it
    /// is still current, looping until stable (Michael's protect idiom).
    /// Returns the protected pointer (possibly NULL).
    pub fn protect<C: ThreadCtx>(&self, ctx: &mut C, slot: usize, src: Addr) -> Addr {
        let s = self.slot_addr(ctx.thread_id(), slot);
        loop {
            let p = ctx.read(src);
            ctx.write(s, p);
            // SC memory: the re-read validates the announcement ordering.
            if ctx.read(src) == p {
                return p;
            }
        }
    }

    /// Announces a pointer the caller already holds (no validation: the
    /// caller must re-validate reachability itself).
    pub fn announce<C: ThreadCtx>(&self, ctx: &mut C, slot: usize, p: Addr) {
        let s = self.slot_addr(ctx.thread_id(), slot);
        ctx.write(s, p);
    }

    /// Clears one slot.
    pub fn clear<C: ThreadCtx>(&self, ctx: &mut C, slot: usize) {
        let s = self.slot_addr(ctx.thread_id(), slot);
        ctx.write(s, NULL);
    }

    /// Clears all of the calling thread's slots.
    pub fn clear_all<C: ThreadCtx>(&self, ctx: &mut C) {
        for slot in 0..self.k {
            self.clear(ctx, slot);
        }
    }

    /// Reads every thread's announcements (the scan step).
    fn collect_hazards<C: ThreadCtx>(&self, ctx: &mut C) -> Vec<Addr> {
        let mut v = Vec::with_capacity(self.threads * self.k);
        for i in 0..(self.threads * self.k) as u64 {
            let p = ctx.read(self.base + i);
            if p != NULL {
                v.push(p);
            }
        }
        v.sort_unstable();
        v
    }
}

/// A thread's private retire list.
#[derive(Debug, Default)]
pub struct RetireList {
    retired: Vec<(Addr, usize)>,
    /// Scan when the list reaches this length (defaults to a multiple of
    /// the table size at first retire).
    threshold: usize,
    /// Scribble a poison pattern over nodes as they are freed, so that a
    /// use-after-free in tests reads an obviously-wrong value.
    pub poison: bool,
    /// Nodes actually freed by this thread (stats/tests).
    pub freed: u64,
}

/// The poison pattern written into freed nodes when enabled.
pub const HP_POISON: u64 = 0xBAD0_BAD0_BAD0_BAD0;

impl RetireList {
    /// Creates an empty list with an explicit scan threshold.
    pub fn with_threshold(threshold: usize) -> Self {
        RetireList {
            retired: Vec::new(),
            threshold: threshold.max(1),
            poison: cfg!(debug_assertions),
            freed: 0,
        }
    }

    /// Number of nodes currently awaiting reclamation.
    pub fn pending(&self) -> usize {
        self.retired.len()
    }

    /// Retires `node` (of `words` words); frees eligible nodes when the
    /// list exceeds the threshold.
    pub fn retire<C: ThreadCtx>(
        &mut self,
        ctx: &mut C,
        dom: &HazardDomain,
        node: Addr,
        words: usize,
    ) {
        debug_assert_ne!(node, NULL);
        self.retired.push((node, words));
        if self.retired.len() >= self.threshold {
            self.scan(ctx, dom);
        }
    }

    /// Frees every retired node no hazard slot names (Michael's Scan).
    pub fn scan<C: ThreadCtx>(&mut self, ctx: &mut C, dom: &HazardDomain) {
        let hazards = dom.collect_hazards(ctx);
        let mut kept = Vec::with_capacity(self.retired.len());
        for (node, words) in self.retired.drain(..) {
            if hazards.binary_search(&node).is_ok() {
                kept.push((node, words));
            } else {
                if self.poison {
                    for w in 0..words as u64 {
                        ctx.write(node + w, HP_POISON);
                    }
                }
                ctx.free(node, words);
                self.freed += 1;
            }
        }
        self.retired = kept;
    }

    /// Force-frees everything unprotected (shutdown path; call after all
    /// threads have quiesced).
    pub fn drain_all<C: ThreadCtx>(&mut self, ctx: &mut C, dom: &HazardDomain) {
        self.scan(ctx, dom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absmem::native::{run_threads, NativeHeap};
    use std::sync::Arc;

    #[test]
    fn protect_returns_current_pointer() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let dom = HazardDomain::new(&mut ctx, 2, 2);
        let src = ctx.alloc(1);
        let node = ctx.alloc(2);
        ctx.write(src, node);
        assert_eq!(dom.protect(&mut ctx, 0, src), node);
        // The announcement is visible in the table.
        assert_eq!(ctx.read(dom.base()), node);
        dom.clear(&mut ctx, 0);
        assert_eq!(ctx.read(dom.base()), NULL);
    }

    #[test]
    fn protected_nodes_survive_scan() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let dom = HazardDomain::new(&mut ctx, 1, 1);
        let a = ctx.alloc(2);
        let b = ctx.alloc(2);
        dom.announce(&mut ctx, 0, a);
        let mut rl = RetireList::with_threshold(1);
        rl.retire(&mut ctx, &dom, a, 2); // protected: must be kept
        assert_eq!(rl.pending(), 1, "protected node not freed");
        rl.retire(&mut ctx, &dom, b, 2); // unprotected: freed
        assert_eq!(rl.freed, 1);
        dom.clear(&mut ctx, 0);
        rl.scan(&mut ctx, &dom);
        assert_eq!(rl.pending(), 0);
        assert_eq!(rl.freed, 2);
    }

    #[test]
    fn freed_addresses_recycle() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let dom = HazardDomain::new(&mut ctx, 1, 1);
        let mut rl = RetireList::with_threshold(1);
        let a = ctx.alloc(2);
        rl.retire(&mut ctx, &dom, a, 2);
        assert_eq!(rl.freed, 1);
        let b = ctx.alloc(2);
        assert_eq!(a, b, "allocator must recycle the freed node");
    }

    #[test]
    fn concurrent_protect_blocks_concurrent_free() {
        // Thread 0 repeatedly retires nodes; thread 1 protects the shared
        // pointer and verifies the node's payload stays intact while
        // protected.
        let heap = Arc::new(NativeHeap::new());
        let (dom, src) = {
            let mut ctx = heap.ctx(0);
            let dom = HazardDomain::new(&mut ctx, 2, 1);
            let src = ctx.alloc(1);
            let first = ctx.alloc(2);
            ctx.write(first, 0xA5A5);
            ctx.write(src, first);
            (dom, src)
        };
        run_threads(&heap, 2, |ctx| {
            if ctx.thread_id() == 0 {
                let mut rl = RetireList::with_threshold(4);
                rl.poison = true; // freed nodes read as HP_POISON
                for i in 0..2_000u64 {
                    // Swap in a fresh node, retire the old one.
                    let fresh = ctx.alloc(2);
                    ctx.write(fresh, 0xA5A5);
                    let old = ctx.swap(src, fresh);
                    rl.retire(ctx, &dom, old, 2);
                    if i % 64 == 0 {
                        rl.scan(ctx, &dom);
                    }
                }
            } else {
                for _ in 0..2_000u64 {
                    let p = dom.protect(ctx, 0, src);
                    // While protected the node cannot be freed, so its
                    // payload is never the poison pattern.
                    let v = ctx.read(p);
                    assert_eq!(v, 0xA5A5, "dereferenced a reclaimed node");
                    dom.clear(ctx, 0);
                }
            }
        });
    }
}
