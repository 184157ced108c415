//! The modular baskets queue (paper §5.2, Algorithms 2–7): a
//! Michael-Scott-style linked list of nodes, each carrying a pluggable
//! [`Basket`], with an explicit CAS strategy for the tail append.
//!
//! Instantiations:
//!
//! * SBQ-HTM  = `ModularQueue<SbqBasket, TxCas>`
//! * SBQ-CAS  = `ModularQueue<SbqBasket, DelayedCas>` (the paper's control)
//! * MS-queue = `ModularQueue<SingleBasket, StandardCas>` (§5.1 viewed in
//!   the framework: a one-element basket rejects all contenders, forcing
//!   the classic retry loop)
//! * BQ-Original ≈ `ModularQueue<LifoBasket, StandardCas>` (baselines
//!   crate)
//!
//! Memory is managed by the paper's epoch scheme (Algorithm 7): a
//! `retired` pointer lagging behind `head`, per-thread protector
//! announcements, and a SWAP-acquired single-reclaimer lock. One deviation,
//! documented here because it is a genuine fix: `free_nodes` additionally
//! bounds reclamation by the *tail* node's index. In the paper's
//! pseudocode a dequeuer can advance `head` past a lagging `tail` (an
//! enqueuer that completed by basket insertion does not advance the tail)
//! and then reclaim the node `tail` still points to, so a later enqueuer's
//! `protect(&Q→tail)` could return freed memory. Bounding by the tail
//! index closes the race at the cost of keeping at most a few extra nodes
//! live.

use crate::basket::{Basket, NULL_ELEM};
use absmem::{Addr, CasStrategy, ThreadCtx, NULL};

/// Result of one append attempt (Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendStatus {
    /// The new node was appended.
    Success,
    /// Another node was appended concurrently (CAS failed): its basket is
    /// accepting our element.
    Failure,
    /// The observed tail already has a successor ("stale tail"): retry
    /// from the real tail. Required for linearizability — it prevents an
    /// enqueuer from inserting into a basket it already used in a previous
    /// operation (§5.2.2).
    BadTail,
}

/// Per-enqueuer state: the spare node kept for reuse when an enqueue
/// completes without appending (§5.2.2's amortization of basket
/// initialization).
#[derive(Debug, Default)]
pub struct EnqueuerState {
    spare: Option<Addr>,
}

/// Shared-queue configuration.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Upper bound on the number of participating threads (sizes the
    /// protectors array; thread ids must be `< max_threads`).
    pub max_threads: usize,
    /// Reclaim retired nodes (Algorithm 7). Disable to stress-test
    /// algorithms without reclamation in the picture.
    pub reclaim: bool,
    /// Scribble a poison pattern over freed nodes so that use-after-free
    /// reads surface as wild values in tests.
    pub poison_on_free: bool,
}

const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

// Queue descriptor layout.
const HEAD: u64 = 0;
const TAIL: u64 = 1;
const RETIRED: u64 = 2;
const PROT: u64 = 3; // protectors[max_threads] follow

// Node layout.
const NEXT: u64 = 0;
const INDEX: u64 = 1;
const BASKET: u64 = 2; // basket state follows

/// The modular baskets queue over abstract memory. `B` supplies the basket
/// algorithm, `S` the tail-append CAS strategy.
///
/// The struct itself is a small handle (descriptor address + config);
/// clone it freely across threads. All methods take the calling thread's
/// [`ThreadCtx`].
#[derive(Debug, Clone)]
pub struct ModularQueue<B, S> {
    base: Addr,
    basket: B,
    strat: S,
    cfg: QueueConfig,
}

impl<B: Basket, S> ModularQueue<B, S> {
    /// Words occupied by one node.
    fn node_words(&self) -> usize {
        2 + self.basket.words()
    }

    fn desc_words(cfg: &QueueConfig) -> usize {
        3 + cfg.max_threads
    }

    fn prot(&self, id: usize) -> Addr {
        debug_assert!(id < self.cfg.max_threads, "thread id out of range");
        self.base + PROT + id as u64
    }

    /// Allocates and initializes a fresh node with an empty basket.
    fn new_node<C: ThreadCtx>(&self, ctx: &mut C) -> Addr {
        let n = ctx.alloc(self.node_words());
        ctx.write(n + NEXT, NULL);
        ctx.write(n + INDEX, 0);
        self.basket.init(ctx, n + BASKET);
        n
    }

    /// Creates a new queue (one empty sentinel node), returning the
    /// shareable handle. Call from a single thread before publishing.
    pub fn new<C: ThreadCtx>(ctx: &mut C, basket: B, strat: S, cfg: QueueConfig) -> Self {
        let base = ctx.alloc(Self::desc_words(&cfg));
        let q = ModularQueue {
            base,
            basket,
            strat,
            cfg,
        };
        let sentinel = q.new_node(ctx);
        ctx.write(base + HEAD, sentinel);
        ctx.write(base + TAIL, sentinel);
        ctx.write(base + RETIRED, sentinel);
        for i in 0..cfg.max_threads as u64 {
            ctx.write(base + PROT + i, NULL);
        }
        q
    }

    /// The descriptor address (for re-constructing handles in other
    /// threads; pair with [`from_base`](Self::from_base)).
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Rebuilds a handle from a descriptor address published by
    /// [`new`](Self::new). The basket, strategy and config must match.
    pub fn from_base(base: Addr, basket: B, strat: S, cfg: QueueConfig) -> Self {
        ModularQueue {
            base,
            basket,
            strat,
            cfg,
        }
    }

    /// Access to the CAS strategy (e.g. to read TxCAS statistics).
    pub fn strategy(&self) -> &S {
        &self.strat
    }

    // ---------------- Algorithm 7: memory reclamation ----------------

    /// Announces that the calling thread may access `*ptr` and everything
    /// after it; returns the protected node (Algorithm 7).
    fn protect<C: ThreadCtx>(&self, ctx: &mut C, ptr: Addr, id: usize) -> Addr {
        let p = self.prot(id);
        loop {
            let v = ctx.read(ptr);
            ctx.write(p, v);
            // On non-SC systems a fence is required between the announce
            // and the validation; the abstract memory is SC (§2).
            if ctx.read(ptr) == v {
                return v;
            }
        }
    }

    fn unprotect<C: ThreadCtx>(&self, ctx: &mut C, id: usize) {
        ctx.write(self.prot(id), NULL);
    }

    /// Frees retired nodes up to the earliest protected node (Algorithm
    /// 7), bounded additionally by the tail index (see module docs).
    fn free_nodes<C: ThreadCtx>(&self, ctx: &mut C) {
        if !self.cfg.reclaim {
            return;
        }
        // Single reclaimer at a time: SWAP out the retired pointer.
        let retired = ctx.swap(self.base + RETIRED, NULL);
        if retired == NULL {
            return;
        }
        let mut min_index = u64::MAX;
        for i in 0..self.cfg.max_threads {
            let p = ctx.read(self.prot(i));
            if p != NULL {
                min_index = min_index.min(ctx.read(p + INDEX));
            }
        }
        // Deviation from the paper (see module docs): never reclaim the
        // node the tail still points at, or anything after it.
        let tail = ctx.read(self.base + TAIL);
        min_index = min_index.min(ctx.read(tail + INDEX));

        let mut r = retired;
        loop {
            if r == ctx.read(self.base + HEAD) || ctx.read(r + INDEX) >= min_index {
                break;
            }
            let next = ctx.read(r + NEXT);
            debug_assert_ne!(next, NULL, "retired prefix must be fully linked");
            if self.cfg.poison_on_free {
                for w in 0..self.node_words() as u64 {
                    ctx.write(r + w, POISON);
                }
            }
            ctx.free(r, self.node_words());
            r = next;
        }
        ctx.write(self.base + RETIRED, r);
    }

    // ---------------- Algorithm 6: head/tail advancement ----------------

    /// Advances `*ptr` at least to `new_node` (by node index).
    fn advance_node<C: ThreadCtx>(&self, ctx: &mut C, ptr: Addr, new_node: Addr) {
        loop {
            let old = ctx.read(ptr);
            if ctx.read(old + INDEX) >= ctx.read(new_node + INDEX) {
                return;
            }
            if ctx.cas(ptr, old, new_node) {
                return;
            }
        }
    }
}

impl<B: Basket, S> ModularQueue<B, S> {
    /// One append attempt at `tail` (Algorithm 4), using the queue's CAS
    /// strategy for the contended next-pointer CAS.
    fn try_append<C: ThreadCtx>(&self, ctx: &mut C, tail: Addr, new_node: Addr) -> AppendStatus
    where
        S: CasStrategy<C>,
    {
        if ctx.read(tail + NEXT) != NULL {
            return AppendStatus::BadTail;
        }
        if self.strat.cas(ctx, tail + NEXT, NULL, new_node) {
            AppendStatus::Success
        } else {
            AppendStatus::Failure
        }
    }

    /// Enqueues `element` (Algorithm 3). `element` must lie in the basket
    /// element domain (`1..=ELEM_MAX`). `st` carries the thread's spare
    /// node between calls; `id = ctx.thread_id()` indexes both the
    /// protector slot and the basket cell.
    pub fn enqueue<C: ThreadCtx>(&self, ctx: &mut C, st: &mut EnqueuerState, element: u64)
    where
        S: CasStrategy<C>,
    {
        let id = ctx.thread_id();
        let mut t = self.protect(ctx, self.base + TAIL, id);
        // Reuse the spare node from a previous basket-completed enqueue,
        // or allocate a fresh one; either way our element goes into our
        // private cell before the node is published.
        let new_node = match st.spare.take() {
            Some(n) => n,
            None => self.new_node(ctx),
        };
        let inserted = self.basket.insert(ctx, new_node + BASKET, element, id);
        debug_assert!(inserted, "insert into own unpublished node cannot fail");

        loop {
            let t_index = ctx.read(t + INDEX);
            ctx.write(new_node + INDEX, t_index + 1);
            match self.try_append(ctx, t, new_node) {
                AppendStatus::Success => {
                    // Single attempt to swing the tail (Algorithm 3 line 9).
                    ctx.cas(self.base + TAIL, t, new_node);
                    self.unprotect(ctx, id);
                    return;
                }
                AppendStatus::Failure => {
                    // Profit from the failed CAS: the node that beat us is
                    // accepting elements from our equivalence class.
                    t = ctx.read(t + NEXT);
                    if self.basket.insert(ctx, t + BASKET, element, id) {
                        // Completed without appending: keep the node for
                        // next time (reset its single insert first) and do
                        // NOT advance the tail (reduces contention).
                        self.basket.reset_single(ctx, new_node + BASKET, id);
                        st.spare = Some(new_node);
                        break;
                    }
                }
                AppendStatus::BadTail => {}
            }
            // Find the current tail and advance the queue's tail pointer
            // at least that far before retrying.
            loop {
                let n = ctx.read(t + NEXT);
                if n == NULL {
                    break;
                }
                t = n;
            }
            self.advance_node(ctx, self.base + TAIL, t);
        }
        self.unprotect(ctx, id);
    }

    /// Dequeues an element, or returns `None` if the queue was observed
    /// empty (Algorithm 5).
    ///
    /// One amortization relative to the paper's pseudocode: Algorithm 5
    /// invokes `free_nodes` on *every* dequeue, whose leading
    /// `SWAP(&Q→retired, NULL)` is a second contended RMW per operation on
    /// top of the basket FAA — which would contradict §5.3.4's analysis
    /// that the dequeue is dominated by *the* basket FAA. We attempt
    /// reclamation only when this dequeue moved past at least one node
    /// (once per basket ≈ once per B elements), like any production
    /// implementation would.
    pub fn dequeue<C: ThreadCtx>(&self, ctx: &mut C) -> Option<u64> {
        let id = ctx.thread_id();
        let start = self.protect(ctx, self.base + HEAD, id);
        let mut h = start;
        let element = loop {
            // Skip past definitely-empty baskets.
            while self.basket.is_empty(ctx, h + BASKET) && ctx.read(h + NEXT) != NULL {
                h = ctx.read(h + NEXT);
            }
            let element = self.basket.extract(ctx, h + BASKET, id);
            if element != NULL_ELEM || ctx.read(h + NEXT) == NULL {
                break element;
            }
        };
        if h != start {
            self.advance_node(ctx, self.base + HEAD, h);
            self.free_nodes(ctx);
        }
        self.unprotect(ctx, id);
        if element == NULL_ELEM {
            None
        } else {
            Some(element)
        }
    }

    /// Best-effort emptiness check: true if the head basket chain is
    /// empty. Same semantics as a failed dequeue, without extracting.
    pub fn is_empty<C: ThreadCtx>(&self, ctx: &mut C) -> bool {
        let id = ctx.thread_id();
        let mut h = self.protect(ctx, self.base + HEAD, id);
        let empty = loop {
            if !self.basket.is_empty(ctx, h + BASKET) {
                break false;
            }
            let n = ctx.read(h + NEXT);
            if n == NULL {
                break true;
            }
            h = n;
        };
        self.unprotect(ctx, id);
        empty
    }
}

/// A one-element basket: only the node's creator ever holds an element;
/// every insert by a contender fails. Plugged into the modular queue this
/// yields exactly the Michael–Scott queue (§5.1): a failed tail CAS forces
/// a full retry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleBasket;

impl Basket for SingleBasket {
    fn words(&self) -> usize {
        1
    }

    fn init<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) {
        ctx.write(base, crate::basket::INSERT_MARK);
    }

    fn reset_single<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, _id: usize) {
        ctx.write(base, crate::basket::INSERT_MARK);
    }

    fn insert<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, elem: u64, _id: usize) -> bool {
        ctx.cas(base, crate::basket::INSERT_MARK, elem)
    }

    fn extract<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, _id: usize) -> u64 {
        let v = ctx.swap(base, crate::basket::EMPTY_MARK);
        if v == crate::basket::INSERT_MARK || v == crate::basket::EMPTY_MARK {
            NULL_ELEM
        } else {
            v
        }
    }

    fn is_empty<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) -> bool {
        ctx.read(base) == crate::basket::EMPTY_MARK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basket::SbqBasket;
    use absmem::native::NativeHeap;
    use absmem::StandardCas;
    use std::sync::Arc;

    fn new_queue(heap: &Arc<NativeHeap>) -> ModularQueue<SbqBasket, StandardCas> {
        let mut ctx = heap.ctx(0);
        ModularQueue::new(
            &mut ctx,
            SbqBasket::new(8),
            StandardCas,
            QueueConfig {
                max_threads: 8,
                reclaim: true,
                poison_on_free: true,
            },
        )
    }

    #[test]
    fn fifo_order_single_thread() {
        let heap = Arc::new(NativeHeap::new());
        let q = new_queue(&heap);
        let mut ctx = heap.ctx(0);
        let mut st = EnqueuerState::default();
        for i in 1..=100u64 {
            q.enqueue(&mut ctx, &mut st, i);
        }
        for i in 1..=100u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    /// SBQ-CAS — the scalable basket with the delayed-CAS append — keeps
    /// FIFO order on the native heap.
    #[test]
    fn sbq_cas_fifo_on_native_backend() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = ModularQueue::new(
            &mut ctx,
            SbqBasket::with_inserters(8, 8),
            absmem::DelayedCas { delay_cycles: 10 },
            QueueConfig {
                max_threads: 8,
                reclaim: true,
                poison_on_free: true,
            },
        );
        let mut st = EnqueuerState::default();
        for i in 1..=50u64 {
            q.enqueue(&mut ctx, &mut st, i);
        }
        for i in 1..=50u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn empty_queue_dequeues_none() {
        let heap = Arc::new(NativeHeap::new());
        let q = new_queue(&heap);
        let mut ctx = heap.ctx(0);
        assert_eq!(q.dequeue(&mut ctx), None);
        assert!(q.is_empty(&mut ctx));
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let heap = Arc::new(NativeHeap::new());
        let q = new_queue(&heap);
        let mut ctx = heap.ctx(0);
        let mut st = EnqueuerState::default();
        for round in 0..50u64 {
            q.enqueue(&mut ctx, &mut st, round * 2 + 1);
            q.enqueue(&mut ctx, &mut st, round * 2 + 2);
            // FIFO: the r-th dequeue sees the (r+1)-th enqueued value.
            assert_eq!(q.dequeue(&mut ctx), Some(round + 1));
        }
        // 100 enqueued, 50 dequeued: elements 51..=100 remain, in order.
        for v in 51..=100u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(v));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn single_basket_yields_ms_queue_fifo() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = ModularQueue::new(
            &mut ctx,
            SingleBasket,
            StandardCas,
            QueueConfig {
                max_threads: 1,
                reclaim: true,
                poison_on_free: true,
            },
        );
        let mut st = EnqueuerState::default();
        for i in 1..=20u64 {
            q.enqueue(&mut ctx, &mut st, i);
        }
        for i in 1..=20u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(i));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn reclamation_frees_drained_prefix() {
        let heap = Arc::new(NativeHeap::new());
        let q = new_queue(&heap);
        let mut ctx = heap.ctx(0);
        let mut st = EnqueuerState::default();
        let frees_before = heap.ctx(0).now(); // placeholder; use pool stats
        let pool_before = {
            // drive enough traffic that nodes retire
            for i in 1..=500u64 {
                q.enqueue(&mut ctx, &mut st, i);
            }
            for i in 1..=500u64 {
                assert_eq!(q.dequeue(&mut ctx), Some(i));
            }
            frees_before
        };
        let _ = pool_before;
        // After a full drain + another operation cycle, dequeue triggers
        // free_nodes; we can't reach the pool stats through NativeCtx, so
        // assert indirectly: a second big cycle must not exhaust the heap
        // (reuse happens) and FIFO still holds.
        for i in 1..=500u64 {
            q.enqueue(&mut ctx, &mut st, 1000 + i);
        }
        for i in 1..=500u64 {
            assert_eq!(q.dequeue(&mut ctx), Some(1000 + i));
        }
        assert_eq!(q.dequeue(&mut ctx), None);
    }

    #[test]
    fn two_handles_share_state() {
        let heap = Arc::new(NativeHeap::new());
        let q = new_queue(&heap);
        let q2 = ModularQueue::from_base(
            q.base(),
            SbqBasket::new(8),
            StandardCas,
            QueueConfig {
                max_threads: 8,
                reclaim: true,
                poison_on_free: true,
            },
        );
        let mut ctx = heap.ctx(0);
        let mut ctx2 = heap.ctx(1);
        let mut st = EnqueuerState::default();
        q.enqueue(&mut ctx, &mut st, 7);
        assert_eq!(q2.dequeue(&mut ctx2), Some(7));
    }
}
