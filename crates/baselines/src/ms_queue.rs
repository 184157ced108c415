//! The Michael–Scott lock-free queue (PODC 1996), the ancestor every
//! queue in the paper's evaluation descends from (§5.1).
//!
//! This is the classic standalone formulation — one element per node,
//! retried tail CAS — written against [`absmem::ThreadCtx`] so it runs on
//! both the native backend and the coherence simulator. It serves two
//! roles: a cross-check for the modular framework's `SingleBasket`
//! instantiation (which must behave identically), and the base case of the
//! benchmark suite.
//!
//! Memory reclamation uses the same protector/retired-pointer epoch scheme
//! as the paper's queues (Algorithm 7), adapted to the one-element nodes.

use absmem::{Addr, ThreadCtx, NULL};

// Descriptor layout.
const HEAD: u64 = 0;
const TAIL: u64 = 1;
const RETIRED: u64 = 2;
const PROT: u64 = 3;

// Node layout.
const NEXT: u64 = 0;
const INDEX: u64 = 1;
const VALUE: u64 = 2;
const NODE_WORDS: usize = 3;

/// A Michael–Scott queue handle over abstract memory. Values are `u64`
/// with `0` reserved as "empty".
#[derive(Debug, Clone, Copy)]
pub struct MsQueue {
    base: Addr,
    max_threads: usize,
    reclaim: bool,
}

impl MsQueue {
    /// Creates the queue (empty sentinel) from a single thread.
    pub fn new<C: ThreadCtx>(ctx: &mut C, max_threads: usize, reclaim: bool) -> Self {
        let base = ctx.alloc(3 + max_threads);
        let q = MsQueue {
            base,
            max_threads,
            reclaim,
        };
        let sentinel = q.new_node(ctx, 0, 0);
        ctx.write(base + HEAD, sentinel);
        ctx.write(base + TAIL, sentinel);
        ctx.write(base + RETIRED, sentinel);
        for i in 0..max_threads as u64 {
            ctx.write(base + PROT + i, NULL);
        }
        q
    }

    /// Descriptor address, for cross-thread handle reconstruction.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Rebuilds a handle from a published descriptor address.
    pub fn from_base(base: Addr, max_threads: usize, reclaim: bool) -> Self {
        MsQueue {
            base,
            max_threads,
            reclaim,
        }
    }

    fn new_node<C: ThreadCtx>(&self, ctx: &mut C, index: u64, value: u64) -> Addr {
        let n = ctx.alloc(NODE_WORDS);
        ctx.write(n + NEXT, NULL);
        ctx.write(n + INDEX, index);
        ctx.write(n + VALUE, value);
        n
    }

    fn prot(&self, id: usize) -> Addr {
        debug_assert!(id < self.max_threads);
        self.base + PROT + id as u64
    }

    fn protect<C: ThreadCtx>(&self, ctx: &mut C, ptr: Addr, id: usize) -> Addr {
        let p = self.prot(id);
        loop {
            let v = ctx.read(ptr);
            ctx.write(p, v);
            if ctx.read(ptr) == v {
                return v;
            }
        }
    }

    fn unprotect<C: ThreadCtx>(&self, ctx: &mut C, id: usize) {
        ctx.write(self.prot(id), NULL);
    }

    fn free_nodes<C: ThreadCtx>(&self, ctx: &mut C) {
        if !self.reclaim {
            return;
        }
        let retired = ctx.swap(self.base + RETIRED, NULL);
        if retired == NULL {
            return;
        }
        let mut min_index = u64::MAX;
        for i in 0..self.max_threads {
            let p = ctx.read(self.prot(i));
            if p != NULL {
                min_index = min_index.min(ctx.read(p + INDEX));
            }
        }
        let tail = ctx.read(self.base + TAIL);
        min_index = min_index.min(ctx.read(tail + INDEX));
        let mut r = retired;
        loop {
            if r == ctx.read(self.base + HEAD) || ctx.read(r + INDEX) >= min_index {
                break;
            }
            let next = ctx.read(r + NEXT);
            ctx.free(r, NODE_WORDS);
            r = next;
        }
        ctx.write(self.base + RETIRED, r);
    }

    /// Appends `value` (must be nonzero).
    pub fn enqueue<C: ThreadCtx>(&self, ctx: &mut C, value: u64) {
        debug_assert_ne!(value, 0, "0 is the empty sentinel");
        let id = ctx.thread_id();
        let mut t = self.protect(ctx, self.base + TAIL, id);
        let node = self.new_node(ctx, 0, value);
        loop {
            let next = ctx.read(t + NEXT);
            if next != NULL {
                // Help swing the lagging tail, then retry from it.
                ctx.cas(self.base + TAIL, t, next);
                t = self.protect(ctx, self.base + TAIL, id);
                continue;
            }
            let idx = ctx.read(t + INDEX) + 1;
            ctx.write(node + INDEX, idx);
            if ctx.cas(t + NEXT, NULL, node) {
                ctx.cas(self.base + TAIL, t, node);
                break;
            }
            // Failed CAS: plain retry — the non-scalable behaviour the
            // baskets queue was invented to avoid.
        }
        self.unprotect(ctx, id);
    }

    /// Removes and returns the oldest value, or `None` when empty.
    pub fn dequeue<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let id = ctx.thread_id();
        let result = loop {
            let h = self.protect(ctx, self.base + HEAD, id);
            let t = ctx.read(self.base + TAIL);
            let next = ctx.read(h + NEXT);
            if next == NULL {
                break None;
            }
            if h == t {
                // Tail is lagging; help it forward.
                ctx.cas(self.base + TAIL, t, next);
            }
            let value = ctx.read(next + VALUE);
            // `planted-bug` (a test-only feature, never enabled by
            // default) deliberately treats a lost head swing as a win, so
            // two contending dequeuers return the same value. It exists
            // solely as the known defect the simfuzz harness must be able
            // to find, shrink, and replay.
            let won = ctx.cas(self.base + HEAD, h, next);
            if won || cfg!(feature = "planted-bug") {
                break Some(value);
            }
        };
        self.free_nodes(ctx);
        self.unprotect(ctx, id);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absmem::native::{run_threads, NativeHeap};
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = MsQueue::new(&mut ctx, 4, true);
        assert_eq!(q.dequeue(&mut ctx), None);
        for i in 1..=200u64 {
            q.enqueue(&mut ctx, i);
        }
        for i in 1..=200u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn mpmc_conservation_native() {
        const N: usize = 4;
        const PER: u64 = 1_500;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            MsQueue::new(&mut ctx, N, true)
        };
        let results = run_threads(&heap, N, |ctx| {
            let tid = ctx.thread_id() as u64;
            let mut got = Vec::new();
            for i in 0..PER {
                q.enqueue(ctx, tid * PER + i + 1);
                if let Some(v) = q.dequeue(ctx) {
                    got.push(v);
                }
            }
            // Drain leftovers.
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

    #[test]
    fn per_thread_order_preserved() {
        // Values from one producer must come out in that producer's order.
        const N: usize = 3;
        const PER: u64 = 800;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            MsQueue::new(&mut ctx, N, true)
        };
        let results = run_threads(&heap, N, |ctx| {
            let tid = ctx.thread_id() as u64;
            let mut got = Vec::new();
            for i in 0..PER {
                q.enqueue(ctx, (tid << 32) | (i + 1));
                if let Some(v) = q.dequeue(ctx) {
                    got.push(v);
                }
            }
            while let Some(v) = q.dequeue(ctx) {
                got.push(v);
            }
            got
        });
        // Reconstruct per-producer subsequences across all consumers: for
        // a linearizable FIFO drained via interleaved dequeues, each
        // consumer's view of one producer must be increasing.
        for got in &results {
            let mut last: [u64; N] = [0; N];
            for &v in got {
                let p = (v >> 32) as usize;
                let seq = v & 0xffff_ffff;
                assert!(seq > last[p], "per-producer order violated");
                last[p] = seq;
            }
        }
    }
}
