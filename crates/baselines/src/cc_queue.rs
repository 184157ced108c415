//! CC-Queue: Fatourou & Kallimanis's combining queue (PPoPP 2012), the
//! combining-technique representative in the paper's evaluation (§6.1).
//!
//! Synchronization is the CC-Synch combining protocol: threads publish
//! their requests into a SWAP-linked list; whoever finds itself at the
//! list's old tail becomes the *combiner* and executes pending requests
//! (up to a bound) against a plain sequential queue, then hands the
//! combiner role to the next waiting thread. The queue's single contended
//! operation is the SWAP — which, like any contended RMW, serializes
//! (§3.2), the reason the paper groups it with the non-scalable designs.
//!
//! Each thread owns two request nodes used alternately (the classic
//! CC-Synch trick: a node handed to the successor as its wait-cell cannot
//! be reused until the next round).

use absmem::{Addr, ThreadCtx, NULL};

/// Combiner bound: maximum requests served per combining session.
pub const COMBINE_BOUND: usize = 64;

// Request-node layout.
const REQ_WAIT: u64 = 0; // 1 while the owner must spin
const REQ_DONE: u64 = 1; // 1 once the request was served
const REQ_OP: u64 = 2; // 0 = none, 1 = enqueue, 2 = dequeue
const REQ_ARG: u64 = 3;
const REQ_RET: u64 = 4;
const REQ_NEXT: u64 = 5;
const REQ_WORDS: usize = 6;

const OP_NONE: u64 = 0;
const OP_ENQ: u64 = 1;
const OP_DEQ: u64 = 2;

// Descriptor layout.
const LOCK_TAIL: u64 = 0; // tail of the CC-Synch request list
const Q_HEAD: u64 = 1; // sequential queue head (sentinel)
const Q_TAIL: u64 = 2; // sequential queue tail
const DESC_WORDS: usize = 3;

// Sequential queue node layout.
const N_NEXT: u64 = 0;
const N_VALUE: u64 = 1;
const N_WORDS: usize = 2;

/// Per-thread state: the two alternating CC-Synch nodes.
#[derive(Debug, Clone, Copy)]
pub struct CcHandle {
    nodes: [Addr; 2],
    toggle: usize,
}

/// The combining queue handle. Values are nonzero `u64`s.
#[derive(Debug, Clone, Copy)]
pub struct CcQueue {
    base: Addr,
}

impl CcQueue {
    /// Creates the queue and its combining lock from one thread.
    pub fn new<C: ThreadCtx>(ctx: &mut C) -> Self {
        let base = ctx.alloc(DESC_WORDS);
        // Sequential queue sentinel.
        let sentinel = ctx.alloc(N_WORDS);
        ctx.write(sentinel + N_NEXT, NULL);
        ctx.write(sentinel + N_VALUE, 0);
        ctx.write(base + Q_HEAD, sentinel);
        ctx.write(base + Q_TAIL, sentinel);
        // Initial lock node: an already-served dummy, so the first thread
        // to SWAP becomes combiner immediately.
        let dummy = ctx.alloc(REQ_WORDS);
        ctx.write(dummy + REQ_WAIT, 0);
        ctx.write(dummy + REQ_DONE, 0);
        ctx.write(dummy + REQ_OP, OP_NONE);
        ctx.write(dummy + REQ_NEXT, NULL);
        ctx.write(base + LOCK_TAIL, dummy);
        CcQueue { base }
    }

    /// Descriptor address for cross-thread reconstruction.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Rebuilds a handle.
    pub fn from_base(base: Addr) -> Self {
        CcQueue { base }
    }

    /// Creates a thread's pair of combining nodes.
    pub fn handle<C: ThreadCtx>(&self, ctx: &mut C) -> CcHandle {
        let mut nodes = [NULL; 2];
        for n in &mut nodes {
            let a = ctx.alloc(REQ_WORDS);
            ctx.write(a + REQ_WAIT, 0);
            ctx.write(a + REQ_DONE, 0);
            ctx.write(a + REQ_OP, OP_NONE);
            ctx.write(a + REQ_NEXT, NULL);
            *n = a;
        }
        CcHandle { nodes, toggle: 0 }
    }

    /// The CC-Synch protocol: announce `(op, arg)`, spin or combine, and
    /// return the request's result.
    fn combine<C: ThreadCtx>(&self, ctx: &mut C, h: &mut CcHandle, op: u64, arg: u64) -> u64 {
        // `next_node` becomes the new shared tail (the successor's wait
        // cell); our request is written into the *previous* tail.
        let next_node = h.nodes[h.toggle];
        h.toggle ^= 1;
        ctx.write(next_node + REQ_WAIT, 1);
        ctx.write(next_node + REQ_DONE, 0);
        ctx.write(next_node + REQ_NEXT, NULL);
        let cur = ctx.swap(self.base + LOCK_TAIL, next_node);
        ctx.write(cur + REQ_OP, op);
        ctx.write(cur + REQ_ARG, arg);
        ctx.write(cur + REQ_NEXT, next_node);
        // `cur` now belongs to us for this round; the previous holder
        // already finished with it (WAIT was 0 or will be cleared).
        while ctx.read(cur + REQ_WAIT) == 1 {
            ctx.delay(30); // polite spin
        }
        if ctx.read(cur + REQ_DONE) == 1 {
            // A combiner served us.
            h.nodes[h.toggle ^ 1] = cur;
            return ctx.read(cur + REQ_RET);
        }
        // We are the combiner: serve requests starting from our own.
        let mut node = cur;
        let mut served = 0usize;
        while served < COMBINE_BOUND {
            let next = ctx.read(node + REQ_NEXT);
            if next == NULL {
                break;
            }
            self.serve(ctx, node);
            ctx.write(node + REQ_DONE, 1);
            ctx.write(node + REQ_WAIT, 0);
            served += 1;
            node = next;
            if ctx.read(node + REQ_OP) == OP_NONE && ctx.read(node + REQ_NEXT) == NULL {
                // Tail reached before its owner announced; stop combining.
                break;
            }
        }
        // Hand the combiner role to `node`'s owner (or unlock if tail).
        ctx.write(node + REQ_WAIT, 0);
        h.nodes[h.toggle ^ 1] = cur;
        ctx.read(cur + REQ_RET)
    }

    /// Executes one request against the sequential queue. Runs in mutual
    /// exclusion (combiner only), so plain reads/writes suffice — the
    /// entire point of combining.
    fn serve<C: ThreadCtx>(&self, ctx: &mut C, req: Addr) {
        match ctx.read(req + REQ_OP) {
            OP_ENQ => {
                let n = ctx.alloc(N_WORDS);
                ctx.write(n + N_NEXT, NULL);
                let arg = ctx.read(req + REQ_ARG);
                ctx.write(n + N_VALUE, arg);
                let t = ctx.read(self.base + Q_TAIL);
                ctx.write(t + N_NEXT, n);
                ctx.write(self.base + Q_TAIL, n);
                ctx.write(req + REQ_RET, 0);
            }
            OP_DEQ => {
                let head = ctx.read(self.base + Q_HEAD);
                let first = ctx.read(head + N_NEXT);
                if first == NULL {
                    ctx.write(req + REQ_RET, 0);
                } else {
                    let v = ctx.read(first + N_VALUE);
                    ctx.write(req + REQ_RET, v);
                    ctx.write(self.base + Q_HEAD, first);
                    // Exclusive access makes immediate free safe.
                    ctx.free(head, N_WORDS);
                }
            }
            other => panic!("combiner found request with op {other}"),
        }
        ctx.write(req + REQ_OP, OP_NONE);
    }

    /// Appends `value` (nonzero).
    pub fn enqueue<C: ThreadCtx>(&self, ctx: &mut C, h: &mut CcHandle, value: u64) {
        debug_assert_ne!(value, 0);
        self.combine(ctx, h, OP_ENQ, value);
    }

    /// Removes the oldest value, or `None` when empty.
    pub fn dequeue<C: ThreadCtx>(&self, ctx: &mut C, h: &mut CcHandle) -> Option<u64> {
        match self.combine(ctx, h, OP_DEQ, 0) {
            0 => None,
            v => Some(v),
        }
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
        let q = CcQueue::new(&mut ctx);
        let mut h = q.handle(&mut ctx);
        assert_eq!(q.dequeue(&mut ctx, &mut h), None);
        for i in 1..=300u64 {
            q.enqueue(&mut ctx, &mut h, i);
        }
        for i in 1..=300u64 {
            assert_eq!(q.dequeue(&mut ctx, &mut h), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx, &mut h), None);
    }

    #[test]
    fn mpmc_conservation_native() {
        const N: usize = 4;
        const PER: u64 = 1_500;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            CcQueue::new(&mut ctx)
        };
        let results = run_threads(&heap, N, |ctx| {
            let mut h = q.handle(ctx);
            let tid = ctx.thread_id() as u64;
            let mut got = Vec::new();
            for i in 0..PER {
                q.enqueue(ctx, &mut h, tid * PER + i + 1);
                if let Some(v) = q.dequeue(ctx, &mut h) {
                    got.push(v);
                }
            }
            while let Some(v) = q.dequeue(ctx, &mut h) {
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
    fn combiner_serves_multiple_requests() {
        // With heavy interleaving the combining path (DONE=1) must be
        // exercised; we detect it indirectly: total ops complete and FIFO
        // per producer holds.
        const N: usize = 3;
        const PER: u64 = 500;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            CcQueue::new(&mut ctx)
        };
        let results = run_threads(&heap, N, |ctx| {
            let mut h = q.handle(ctx);
            let tid = ctx.thread_id() as u64;
            let mut got = Vec::new();
            for i in 0..PER {
                q.enqueue(ctx, &mut h, (tid << 32) | (i + 1));
            }
            while let Some(v) = q.dequeue(ctx, &mut h) {
                got.push(v);
            }
            got
        });
        for got in &results {
            let mut last = [0u64; N];
            for &v in got {
                let p = (v >> 32) as usize;
                let s = v & 0xffff_ffff;
                assert!(s > last[p], "per-producer FIFO violated");
                last[p] = s;
            }
        }
        let total: usize = results.iter().map(|g| g.len()).sum();
        assert_eq!(total, N * PER as usize);
    }
}
