//! BQ-Original: the original baskets queue (Hoffman, Shalev & Shavit,
//! OPODIS 2007), expressed in the paper's modular framework (§5.2).
//!
//! Viewed through the modular lens, the original queue is the baskets
//! queue with (a) a plain retried CAS for the tail append and (b) a
//! LIFO-stack basket with the property that *all inserts fail once any
//! element has been extracted* — the role the original's "deleted bit" on
//! next pointers plays. [`LifoBasket`] implements exactly that contract.
//!
//! Basket cells (`[elem, next]` pairs) are deliberately not recycled: the
//! original interleaves basket items with list nodes and relies on its own
//! deleted-bit reclamation, which the modular framing cannot express
//! without re-introducing the original's pointer tagging. The leak is
//! bounded by the number of contended enqueues and does not affect the
//! timing behaviour the benchmarks compare. (DESIGN.md §3.)

use absmem::{Addr, StandardCas, ThreadCtx, NULL};
use sbq::basket::{Basket, NULL_ELEM};
use sbq::modular::{ModularQueue, QueueConfig};

/// Low-bit mark on the stack top pointer: set once the first extraction
/// happens; inserts observing it fail forever after.
const SEALED_BIT: u64 = 1;

/// A LIFO linked-stack basket that seals itself on first extraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifoBasket;

impl LifoBasket {
    const TOP: u64 = 0;
    const CELL_WORDS: usize = 2; // [elem, next]
}

impl Basket for LifoBasket {
    fn words(&self) -> usize {
        1
    }

    fn init<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) {
        ctx.write(base + Self::TOP, NULL);
    }

    fn reset_single<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, _id: usize) {
        // Discard the single pushed cell (leaked; see module docs).
        ctx.write(base + Self::TOP, NULL);
    }

    fn insert<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, elem: u64, _id: usize) -> bool {
        let top = ctx.read(base + Self::TOP);
        if top & SEALED_BIT != 0 {
            // An element was already removed from this basket: inserting
            // now could violate queue linearizability (§5.2.2's analysis
            // of the original algorithm).
            return false;
        }
        let cell = ctx.alloc(Self::CELL_WORDS);
        ctx.write(cell, elem);
        ctx.write(cell + 1, top);
        if ctx.cas(base + Self::TOP, top, cell) {
            true
        } else {
            // A basket insert may fail non-deterministically (spec §5.2.1);
            // the enqueuer will retry at the (possibly new) tail.
            ctx.free(cell, Self::CELL_WORDS);
            false
        }
    }

    fn extract<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, _id: usize) -> u64 {
        loop {
            let top = ctx.read(base + Self::TOP);
            let ptr = top & !SEALED_BIT;
            if ptr == NULL {
                // Empty: seal so that no insert can slip in afterwards.
                if top & SEALED_BIT != 0 || ctx.cas(base + Self::TOP, top, SEALED_BIT) {
                    return NULL_ELEM;
                }
                continue;
            }
            let elem = ctx.read(ptr);
            let next = ctx.read(ptr + 1) & !SEALED_BIT;
            if ctx.cas(base + Self::TOP, top, next | SEALED_BIT) {
                return elem;
            }
        }
    }

    fn is_empty<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) -> bool {
        ctx.read(base + Self::TOP) == SEALED_BIT
    }
}

/// The assembled BQ-Original comparator.
pub type BqOriginal = ModularQueue<LifoBasket, StandardCas>;

/// Builds a BQ-Original queue.
pub fn new_bq_original<C: ThreadCtx>(ctx: &mut C, cfg: QueueConfig) -> BqOriginal {
    ModularQueue::new(ctx, LifoBasket, StandardCas, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use absmem::native::{run_threads, NativeHeap};
    use sbq::modular::EnqueuerState;
    use std::sync::Arc;

    #[test]
    fn lifo_basket_contract() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let b = LifoBasket;
        let base = ctx.alloc(b.words());
        b.init(&mut ctx, base);
        assert!(b.insert(&mut ctx, base, 1, 0));
        assert!(b.insert(&mut ctx, base, 2, 0));
        assert_eq!(b.extract(&mut ctx, base, 0), 2, "LIFO order");
        // Sealed: all further inserts fail.
        assert!(!b.insert(&mut ctx, base, 3, 0));
        assert_eq!(b.extract(&mut ctx, base, 0), 1);
        assert_eq!(b.extract(&mut ctx, base, 0), NULL_ELEM);
        assert!(b.is_empty(&mut ctx, base));
    }

    #[test]
    fn seal_on_empty_extract_blocks_late_inserts() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let b = LifoBasket;
        let base = ctx.alloc(b.words());
        b.init(&mut ctx, base);
        assert_eq!(b.extract(&mut ctx, base, 0), NULL_ELEM);
        assert!(
            !b.insert(&mut ctx, base, 9, 0),
            "sealed-empty rejects inserts"
        );
    }

    #[test]
    fn queue_fifo_single_thread() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = new_bq_original(
            &mut ctx,
            QueueConfig {
                max_threads: 1,
                poison_on_free: true,
            },
        );
        let mut st = EnqueuerState::default();
        for i in 1..=100u64 {
            q.enqueue(&mut ctx, &mut st, i);
        }
        for i in 1..=100u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn queue_conservation_concurrent() {
        const N: usize = 4;
        const PER: u64 = 1_000;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            new_bq_original(
                &mut ctx,
                QueueConfig {
                    max_threads: N,
                    poison_on_free: false,
                },
            )
        };
        let results = run_threads(&heap, N, |ctx| {
            let tid = ctx.thread_id() as u64;
            let mut st = EnqueuerState::default();
            let mut got = Vec::new();
            for i in 0..PER {
                q.enqueue(ctx, &mut st, tid * PER + i + 1);
                if let Some(v) = q.dequeue(ctx) {
                    got.push(v);
                }
            }
            while let Some(v) = q.dequeue(ctx) {
                got.push(v);
            }
            got
        });
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=N as u64 * PER).collect();
        assert_eq!(all, expect);
    }
}
