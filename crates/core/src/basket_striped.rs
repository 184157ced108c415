//! An experimental basket with scalable *dequeues* — the paper's stated
//! future work (§8: "designing a basket with scalable dequeue
//! operations").
//!
//! The SBQ basket's extraction bottleneck is the FAA ticket counter: every
//! extractor serializes on one line (§5.3.4). The striped basket removes
//! the counter entirely: each extractor starts scanning at its own stripe
//! (a per-thread offset into the cell array) and claims cells with SWAP,
//! wrapping around until it finds an element or has visited every cell.
//!
//! Properties (same contract as [`crate::basket::Basket`], §5.2.1
//! plus the §5.3.2 emptiness condition):
//!
//! * inserts are still synchronization-free (private cell CAS);
//! * extraction is contention-free when the basket is well-filled —
//!   extractors touch disjoint stripes;
//! * an extractor that completes a full wrap having found every cell
//!   claimed (never `INSERT_MARK`) knows no future insert can succeed, so
//!   declaring empty is sticky — the property the queue's linearizability
//!   proof needs;
//! * the trade-off: near-empty baskets cost O(B) scans (the SBQ basket's
//!   counter answers "which cells remain" in O(1)), and an extractor may
//!   claim-and-skip INSERT cells belonging to enqueuers that never came,
//!   exactly like the original.
//!
//! The `ablate-deq` bench target compares both baskets on the
//! consumer-only workload.

use crate::basket::{Basket, EMPTY_MARK, INSERT_MARK, NULL_ELEM};
use absmem::{Addr, ThreadCtx};

/// Striped-scan basket. Layout (`1 + capacity` words):
///
/// ```text
/// base+0   empty  — sticky empty bit
/// base+1+i cells[i]
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StripedBasket {
    /// Number of cells; also the bound on inserter ids.
    pub capacity: usize,
    /// Active inserters (cells beyond this are never filled, and a wrap
    /// only scans `0..inserters`).
    pub inserters: usize,
}

impl StripedBasket {
    /// A basket with `capacity` cells, all insertable.
    pub fn new(capacity: usize) -> Self {
        StripedBasket {
            capacity,
            inserters: capacity,
        }
    }

    /// Fixed capacity with a smaller active-inserter bound.
    pub fn with_inserters(capacity: usize, inserters: usize) -> Self {
        assert!(inserters > 0 && inserters <= capacity);
        StripedBasket {
            capacity,
            inserters,
        }
    }

    const EMPTY: u64 = 0;
    const CELLS: u64 = 1;

    /// The stripe (starting cell) for extractor `id`: spread extractors
    /// across the active cells.
    fn stripe(&self, id: usize) -> u64 {
        if self.inserters == 0 {
            return 0;
        }
        // A multiplicative shuffle so consecutive ids land far apart.
        (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.inserters as u64
    }
}

impl Basket for StripedBasket {
    fn words(&self) -> usize {
        1 + self.capacity
    }

    fn init<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) {
        ctx.write(base + Self::EMPTY, 0);
        for i in 0..self.capacity as u64 {
            ctx.write(base + Self::CELLS + i, INSERT_MARK);
        }
    }

    fn reset_single<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, id: usize) {
        ctx.write(base + Self::CELLS + id as u64, INSERT_MARK);
    }

    fn insert<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, elem: u64, id: usize) -> bool {
        assert!(
            id < self.capacity,
            "inserter id {id} out of range (capacity {})",
            self.capacity
        );
        if id >= self.inserters {
            return false;
        }
        ctx.cas(base + Self::CELLS + id as u64, INSERT_MARK, elem)
    }

    fn extract<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, id: usize) -> u64 {
        if ctx.read(base + Self::EMPTY) != 0 {
            return NULL_ELEM;
        }
        let n = self.inserters as u64;
        let start = self.stripe(id);
        // One full wrap; claim every cell visited so that a completed
        // empty wrap is conclusive.
        for step in 0..n {
            let idx = (start + step) % n;
            let cell = base + Self::CELLS + idx;
            // Cheap pre-read: skip cells already claimed without an RMW.
            if ctx.read(cell) == EMPTY_MARK {
                continue;
            }
            let v = ctx.swap(cell, EMPTY_MARK);
            if v != INSERT_MARK && v != EMPTY_MARK {
                return v;
            }
            // v == INSERT_MARK: claimed an unfilled cell (its inserter can
            // no longer deposit) — keep scanning.
            // v == EMPTY_MARK: raced with another extractor — keep going.
        }
        // Full wrap, everything claimed: no element can ever appear again.
        ctx.write(base + Self::EMPTY, 1);
        NULL_ELEM
    }

    fn is_empty<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) -> bool {
        ctx.read(base + Self::EMPTY) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absmem::native::{run_threads, NativeHeap};
    use std::sync::Arc;

    fn setup(b: &StripedBasket) -> (Arc<NativeHeap>, Addr) {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let base = ctx.alloc(b.words());
        b.init(&mut ctx, base);
        (heap, base)
    }

    #[test]
    fn roundtrip_and_conservation() {
        let b = StripedBasket::new(8);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        for id in 0..8 {
            assert!(b.insert(&mut ctx, base, 100 + id as u64, id));
        }
        let mut got: Vec<u64> = (0..8).map(|_| b.extract(&mut ctx, base, 3)).collect();
        got.sort_unstable();
        assert_eq!(got, (100..108).collect::<Vec<u64>>());
        assert_eq!(b.extract(&mut ctx, base, 0), NULL_ELEM);
        assert!(b.is_empty(&mut ctx, base));
    }

    #[test]
    fn empty_wrap_is_sticky_and_blocks_inserts() {
        let b = StripedBasket::new(4);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        assert_eq!(b.extract(&mut ctx, base, 1), NULL_ELEM);
        assert!(b.is_empty(&mut ctx, base));
        for id in 0..4 {
            assert!(
                !b.insert(&mut ctx, base, 7, id),
                "post-empty insert must fail"
            );
        }
        assert_eq!(b.extract(&mut ctx, base, 2), NULL_ELEM);
    }

    #[test]
    fn extractors_start_at_distinct_stripes() {
        let b = StripedBasket::new(16);
        let stripes: std::collections::HashSet<u64> = (0..16).map(|id| b.stripe(id)).collect();
        assert!(stripes.len() >= 8, "stripes too clustered: {stripes:?}");
    }

    #[test]
    fn concurrent_extract_no_duplicates() {
        let b = StripedBasket::new(16);
        let heap = Arc::new(NativeHeap::new());
        let base = {
            let mut ctx = heap.ctx(0);
            let base = ctx.alloc(b.words());
            b.init(&mut ctx, base);
            for id in 0..16 {
                assert!(b.insert(&mut ctx, base, 1000 + id as u64, id));
            }
            base
        };
        let got = run_threads(&heap, 4, |ctx| {
            let id = ctx.thread_id();
            let mut v = Vec::new();
            loop {
                let e = b.extract(ctx, base, id);
                if e == NULL_ELEM {
                    break;
                }
                v.push(e);
            }
            v
        });
        let mut all: Vec<u64> = got.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16, "every element exactly once");
    }

    #[test]
    fn works_as_queue_basket() {
        use crate::modular::{EnqueuerState, ModularQueue, QueueConfig};
        use absmem::StandardCas;
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = ModularQueue::new(
            &mut ctx,
            StripedBasket::new(4),
            StandardCas,
            QueueConfig {
                max_threads: 4,
                poison_on_free: true,
            },
        );
        let mut st = EnqueuerState::default();
        for i in 1..=200u64 {
            q.enqueue(&mut ctx, &mut st, i);
        }
        for i in 1..=200u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(i), "single-thread FIFO");
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }
}
