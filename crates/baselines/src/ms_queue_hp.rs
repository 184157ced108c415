//! Michael–Scott queue with *hazard-pointer* reclamation — the scheme the
//! paper names as the epoch scheme's standard alternative (§5.2.2), and
//! the one Michael's original hazard-pointer paper itself applies to this
//! queue.
//!
//! Functionally identical to [`crate::ms_queue::MsQueue`]; only memory
//! management differs, which is exactly the point: the cross-impl tests
//! drive both over identical schedules and demand identical results.
//!
//! Hazard discipline (Michael 2004, Fig. 5):
//! * dequeue protects `head` in slot 0 and `head->next` in slot 1 before
//!   dereferencing either;
//! * enqueue protects `tail` in slot 0;
//! * a node is retired only after it is unlinked (head moved past it), and
//!   freed only when no slot names it.

use absmem::{Addr, ThreadCtx, NULL};
use sbq::reclaim_hp::{HazardDomain, RetireList};

// Descriptor layout.
const HEAD: u64 = 0;
const TAIL: u64 = 1;
const DESC_WORDS: usize = 2;

// Node layout.
const NEXT: u64 = 0;
const VALUE: u64 = 1;
const NODE_WORDS: usize = 2;

/// Hazard slots each thread needs.
pub const HP_SLOTS: usize = 2;

/// The queue handle. Values are nonzero `u64`s.
#[derive(Debug, Clone, Copy)]
pub struct MsQueueHp {
    base: Addr,
    dom: HazardDomain,
}

/// Per-thread state: the private retire list.
#[derive(Debug)]
pub struct MsHpThread {
    rl: RetireList,
}

impl MsQueueHp {
    /// Creates the queue and its hazard domain from one thread.
    pub fn new<C: ThreadCtx>(ctx: &mut C, threads: usize) -> Self {
        let dom = HazardDomain::new(ctx, threads, HP_SLOTS);
        let base = ctx.alloc(DESC_WORDS);
        let sentinel = ctx.alloc(NODE_WORDS);
        ctx.write(sentinel + NEXT, NULL);
        ctx.write(sentinel + VALUE, 0);
        ctx.write(base + HEAD, sentinel);
        ctx.write(base + TAIL, sentinel);
        MsQueueHp { base, dom }
    }

    /// Rebuilds a handle from published addresses.
    pub fn from_parts(base: Addr, dom_base: Addr, threads: usize) -> Self {
        MsQueueHp {
            base,
            dom: HazardDomain::from_base(dom_base, threads, HP_SLOTS),
        }
    }

    /// Addresses needed by [`from_parts`](Self::from_parts).
    pub fn parts(&self) -> (Addr, Addr) {
        (self.base, self.dom.base())
    }

    /// Creates a thread's retire-list state. `threshold` bounds the
    /// per-thread backlog before a scan (2×(threads×slots) is Michael's
    /// recommendation).
    pub fn thread_state(&self, threads: usize) -> MsHpThread {
        MsHpThread {
            rl: RetireList::with_threshold(2 * threads * HP_SLOTS),
        }
    }

    /// Appends `value` (nonzero).
    pub fn enqueue<C: ThreadCtx>(&self, ctx: &mut C, value: u64) {
        debug_assert_ne!(value, 0);
        let node = ctx.alloc(NODE_WORDS);
        ctx.write(node + NEXT, NULL);
        ctx.write(node + VALUE, value);
        loop {
            // Protect the tail before touching its next pointer.
            let t = self.dom.protect(ctx, 0, self.base + TAIL);
            let next = ctx.read(t + NEXT);
            if ctx.read(self.base + TAIL) != t {
                continue;
            }
            if next != NULL {
                ctx.cas(self.base + TAIL, t, next);
                continue;
            }
            if ctx.cas(t + NEXT, NULL, node) {
                ctx.cas(self.base + TAIL, t, node);
                break;
            }
        }
        self.dom.clear(ctx, 0);
    }

    /// Removes the oldest value, or `None` when empty.
    pub fn dequeue<C: ThreadCtx>(&self, ctx: &mut C, st: &mut MsHpThread) -> Option<u64> {
        let result = loop {
            let h = self.dom.protect(ctx, 0, self.base + HEAD);
            let t = ctx.read(self.base + TAIL);
            // Protect the successor before reading its value.
            let next = self.dom.protect(ctx, 1, h + NEXT);
            if ctx.read(self.base + HEAD) != h {
                continue; // h may already be retired; restart
            }
            if next == NULL {
                break None;
            }
            if h == t {
                ctx.cas(self.base + TAIL, t, next);
                continue;
            }
            let value = ctx.read(next + VALUE);
            if ctx.cas(self.base + HEAD, h, next) {
                // h is unlinked: retire it (freeing waits for hazards).
                st.rl.retire(ctx, &self.dom, h, NODE_WORDS);
                break Some(value);
            }
        };
        self.dom.clear_all(ctx);
        result
    }

    /// Final cleanup for a quiesced thread.
    pub fn quiesce<C: ThreadCtx>(&self, ctx: &mut C, st: &mut MsHpThread) {
        st.rl.drain_all(ctx, &self.dom);
    }

    /// Nodes this thread's list has freed (stats for tests).
    pub fn freed(st: &MsHpThread) -> u64 {
        st.rl.freed
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
        let q = MsQueueHp::new(&mut ctx, 1);
        let mut st = q.thread_state(1);
        assert_eq!(q.dequeue(&mut ctx, &mut st), None);
        for i in 1..=300u64 {
            q.enqueue(&mut ctx, i);
        }
        for i in 1..=300u64 {
            assert_eq!(q.dequeue(&mut ctx, &mut st), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx, &mut st), None);
        q.quiesce(&mut ctx, &mut st);
        assert!(MsQueueHp::freed(&st) > 250, "retired nodes must be freed");
    }

    #[test]
    fn mpmc_conservation_with_reclamation() {
        const N: usize = 4;
        const PER: u64 = 1_500;
        let heap = Arc::new(NativeHeap::new());
        let q = {
            let mut ctx = heap.ctx(0);
            MsQueueHp::new(&mut ctx, N)
        };
        let results = run_threads(&heap, N, |ctx| {
            let mut st = q.thread_state(N);
            let tid = ctx.thread_id() as u64;
            let mut got = Vec::new();
            for i in 0..PER {
                q.enqueue(ctx, tid * PER + i + 1);
                if let Some(v) = q.dequeue(ctx, &mut st) {
                    got.push(v);
                }
            }
            while let Some(v) = q.dequeue(ctx, &mut st) {
                got.push(v);
            }
            q.quiesce(ctx, &mut st);
            (got, MsQueueHp::freed(&st))
        });
        let mut all: Vec<u64> = results.iter().flat_map(|(g, _)| g.clone()).collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=N as u64 * PER).collect();
        assert_eq!(all, expect, "conservation under hazard-pointer reclamation");
        let freed: u64 = results.iter().map(|(_, f)| f).sum();
        assert!(
            freed > (N as u64 * PER) / 2,
            "most nodes should be reclaimed, freed={freed}"
        );
    }

    #[test]
    fn agrees_with_epoch_ms_queue() {
        // Identical deterministic schedule against both reclamation
        // schemes must produce identical dequeue sequences.
        let ops: Vec<bool> = (0..2_000).map(|i| (i * 7 + 3) % 11 < 6).collect();
        let heap1 = Arc::new(NativeHeap::new());
        let mut c1 = heap1.ctx(0);
        let q1 = crate::MsQueue::new(&mut c1, 1, true);
        let heap2 = Arc::new(NativeHeap::new());
        let mut c2 = heap2.ctx(0);
        let q2 = MsQueueHp::new(&mut c2, 1);
        let mut st2 = q2.thread_state(1);
        let mut v = 0u64;
        for &e in &ops {
            if e {
                v += 1;
                q1.enqueue(&mut c1, v);
                q2.enqueue(&mut c2, v);
            } else {
                assert_eq!(q1.dequeue(&mut c1), q2.dequeue(&mut c2, &mut st2));
            }
        }
    }
}
