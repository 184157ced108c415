//! WF-Queue: a reproduction of the *fast path* of Yang & Mellor-Crummey's
//! wait-free FAA-based queue (PPoPP 2016) — the fastest queue in the
//! literature at the time of the paper, and its main comparator (§6.1).
//!
//! The queue is an unbounded "infinite array" realized as a linked list of
//! fixed-size segments. Enqueuers and dequeuers each claim a global index
//! with one FAA and meet at the corresponding cell:
//!
//! * enqueue: `i = FAA(E, 1)`, then `CAS(cell[i], BOTTOM, value)`;
//! * dequeue: `i = FAA(D, 1)`, then `SWAP(cell[i], TOP)` — receiving the
//!   value if the enqueuer arrived first, or poisoning the cell (the
//!   enqueuer's CAS then fails and it takes a fresh index).
//!
//! **Deviation (DESIGN.md §3):** the original's wait-free *slow path*
//! (enqueue/dequeue helping with bounded patience) is replaced by this
//! lock-free retry, because the paper itself observes the slow path never
//! executes in practice ("operations make progress, and so WF-Queue is not
//! penalized by its wait-freedom"). Performance-critical structure —
//! one FAA per operation on separate E/D counters, segment walking,
//! per-thread segment caches, index-based segment reclamation — follows
//! the original.

use absmem::{Addr, ThreadCtx, NULL};

/// Cells per segment (the original uses 1024; smaller here so that
/// simulated runs exercise segment boundaries too).
pub const SEG_CELLS: usize = 256;

const BOTTOM: u64 = 0; // cell initial state
const TOP: u64 = u64::MAX; // cell poisoned by a dequeuer

// Descriptor layout.
const ENQ_IDX: u64 = 0; // E counter
const DEQ_IDX: u64 = 1; // D counter
const SEG_HEAD: u64 = 2; // earliest live segment
const PROT: u64 = 3; // per-thread protected segment id (offset by +1; 0 = none)

// Segment layout.
const SEG_ID: u64 = 0;
const SEG_NEXT: u64 = 1;
const SEG_CELL0: u64 = 2;
const SEG_WORDS: usize = 2 + SEG_CELLS;

/// Per-thread state: cached segment pointers (the original's `enq`/`deq`
/// handles).
#[derive(Debug, Clone, Copy)]
pub struct WfHandle {
    enq_seg: Addr,
    deq_seg: Addr,
}

/// The queue handle. Values are `u64` in `1..u64::MAX-1`.
#[derive(Debug, Clone, Copy)]
pub struct WfQueue {
    base: Addr,
    max_threads: usize,
    reclaim: bool,
}

impl WfQueue {
    /// Creates the queue with one initial segment.
    pub fn new<C: ThreadCtx>(ctx: &mut C, max_threads: usize, reclaim: bool) -> Self {
        let base = ctx.alloc(3 + max_threads);
        let q = WfQueue {
            base,
            max_threads,
            reclaim,
        };
        let seg = q.new_segment(ctx, 0);
        ctx.write(base + ENQ_IDX, 0);
        ctx.write(base + DEQ_IDX, 0);
        ctx.write(base + SEG_HEAD, seg);
        for i in 0..max_threads as u64 {
            ctx.write(base + PROT + i, 0);
        }
        q
    }

    /// Descriptor address for cross-thread reconstruction.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Rebuilds a handle.
    pub fn from_base(base: Addr, max_threads: usize, reclaim: bool) -> Self {
        WfQueue {
            base,
            max_threads,
            reclaim,
        }
    }

    /// Creates the per-thread handle; call once per thread after `new`.
    pub fn handle<C: ThreadCtx>(&self, ctx: &mut C) -> WfHandle {
        let seg = ctx.read(self.base + SEG_HEAD);
        WfHandle {
            enq_seg: seg,
            deq_seg: seg,
        }
    }

    fn new_segment<C: ThreadCtx>(&self, ctx: &mut C, id: u64) -> Addr {
        let s = ctx.alloc(SEG_WORDS);
        ctx.write(s + SEG_ID, id);
        ctx.write(s + SEG_NEXT, NULL);
        for i in 0..SEG_CELLS as u64 {
            ctx.write(s + SEG_CELL0 + i, BOTTOM);
        }
        s
    }

    /// Walks (appending as needed) from `start` to the segment containing
    /// global cell index `idx`; returns (segment, cell address).
    fn find_cell<C: ThreadCtx>(&self, ctx: &mut C, start: Addr, idx: u64) -> (Addr, Addr) {
        let target = idx / SEG_CELLS as u64;
        let mut s = start;
        let mut sid = ctx.read(s + SEG_ID);
        debug_assert!(sid <= target, "cached segment is ahead of the index");
        while sid < target {
            let mut next = ctx.read(s + SEG_NEXT);
            if next == NULL {
                let fresh = self.new_segment(ctx, sid + 1);
                if ctx.cas(s + SEG_NEXT, NULL, fresh) {
                    next = fresh;
                } else {
                    ctx.free(fresh, SEG_WORDS);
                    next = ctx.read(s + SEG_NEXT);
                }
            }
            s = next;
            sid += 1;
        }
        (s, s + SEG_CELL0 + (idx % SEG_CELLS as u64))
    }

    /// Announces the lowest segment id the thread may touch; validates
    /// against segment-head movement like the other queues' protectors.
    fn protect_seg<C: ThreadCtx>(&self, ctx: &mut C, h: &WfHandle) {
        let id = ctx.thread_id();
        let min = ctx
            .read(h.enq_seg + SEG_ID)
            .min(ctx.read(h.deq_seg + SEG_ID));
        ctx.write(self.base + PROT + id as u64, min + 1); // +1: 0 means none
    }

    fn unprotect_seg<C: ThreadCtx>(&self, ctx: &mut C) {
        let id = ctx.thread_id();
        ctx.write(self.base + PROT + id as u64, 0);
    }

    /// Frees segments wholly below every thread's protected id and the
    /// current dequeue index. Single reclaimer via SWAP on SEG_HEAD being
    /// advanced by CAS; simpler than the original's scheme but preserves
    /// its index-based character.
    fn reclaim_segments<C: ThreadCtx>(&self, ctx: &mut C, h: &mut WfHandle) {
        if !self.reclaim {
            return;
        }
        let deq = ctx.read(self.base + DEQ_IDX);
        let mut min_id = deq / SEG_CELLS as u64;
        for i in 0..self.max_threads {
            let p = ctx.read(self.base + PROT + i as u64);
            if p != 0 {
                min_id = min_id.min(p - 1);
            }
        }
        loop {
            let head = ctx.read(self.base + SEG_HEAD);
            let hid = ctx.read(head + SEG_ID);
            if hid >= min_id {
                break;
            }
            let next = ctx.read(head + SEG_NEXT);
            if next == NULL {
                break;
            }
            if ctx.cas(self.base + SEG_HEAD, head, next) {
                ctx.free(head, SEG_WORDS);
                if h.enq_seg == head {
                    h.enq_seg = next;
                }
                if h.deq_seg == head {
                    h.deq_seg = next;
                }
            } else {
                break;
            }
        }
    }

    /// Appends `value`.
    pub fn enqueue<C: ThreadCtx>(&self, ctx: &mut C, h: &mut WfHandle, value: u64) {
        debug_assert!(value != BOTTOM && value != TOP);
        self.protect_seg(ctx, h);
        loop {
            let i = ctx.faa(self.base + ENQ_IDX, 1);
            let (seg, cell) = self.find_cell(ctx, h.enq_seg, i);
            h.enq_seg = seg;
            if ctx.cas(cell, BOTTOM, value) {
                break;
            }
            // A dequeuer poisoned this cell first; take a fresh index
            // (the original's fast-path retry).
        }
        self.unprotect_seg(ctx);
    }

    /// Removes the oldest value, or returns `None` if the queue was
    /// observed empty.
    pub fn dequeue<C: ThreadCtx>(&self, ctx: &mut C, h: &mut WfHandle) -> Option<u64> {
        self.protect_seg(ctx, h);
        let r = loop {
            let i = ctx.faa(self.base + DEQ_IDX, 1);
            let (seg, cell) = self.find_cell(ctx, h.deq_seg, i);
            h.deq_seg = seg;
            let v = ctx.swap(cell, TOP);
            if v != BOTTOM {
                // Reclaim only when a segment boundary was crossed: the
                // protector scan is O(threads) and must stay amortized
                // (the original reclaims per consumed segment).
                if i % SEG_CELLS as u64 == SEG_CELLS as u64 - 1 {
                    self.reclaim_segments(ctx, h);
                }
                break Some(v);
            }
            // Raced ahead of the enqueuer with index i (its CAS will now
            // fail). Retry while the queue may be non-empty.
            if i + 1 >= ctx.read(self.base + ENQ_IDX) {
                break None;
            }
        };
        self.unprotect_seg(ctx);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absmem::native::{run_threads, NativeHeap};
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread_across_segments() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = WfQueue::new(&mut ctx, 2, true);
        let mut h = q.handle(&mut ctx);
        let total = (SEG_CELLS * 3 + 17) as u64; // cross several segments
        for i in 1..=total {
            q.enqueue(&mut ctx, &mut h, i);
        }
        for i in 1..=total {
            assert_eq!(q.dequeue(&mut ctx, &mut h), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx, &mut h), None);
    }

    #[test]
    fn empty_dequeue_returns_none_and_poisons() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = WfQueue::new(&mut ctx, 1, true);
        let mut h = q.handle(&mut ctx);
        assert_eq!(q.dequeue(&mut ctx, &mut h), None);
        // The poisoned cell forces the next enqueue to a fresh index, but
        // FIFO semantics are unaffected.
        q.enqueue(&mut ctx, &mut h, 5);
        assert_eq!(q.dequeue(&mut ctx, &mut h), Some(5));
    }

    #[test]
    fn mpmc_conservation_native() {
        const N: usize = 4;
        const PER: u64 = 2_000;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            WfQueue::new(&mut ctx, N, true)
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
    fn segment_reclamation_advances_head() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = WfQueue::new(&mut ctx, 1, true);
        let mut h = q.handle(&mut ctx);
        let total = (SEG_CELLS * 4) as u64;
        for i in 1..=total {
            q.enqueue(&mut ctx, &mut h, i);
        }
        for i in 1..=total {
            assert_eq!(q.dequeue(&mut ctx, &mut h), Some(i));
        }
        let head_seg = ctx.read(q.base() + SEG_HEAD);
        let head_id = ctx.read(head_seg + SEG_ID);
        assert!(
            head_id >= 3,
            "drained segments must be reclaimed, head at {head_id}"
        );
    }
}
