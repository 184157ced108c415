//! The native, typed SBQ: a lock-free MPMC FIFO queue for real programs,
//! built from the modular baskets queue running on real atomics.
//!
//! Without hardware transactional memory (TSX is absent/fused-off on
//! current parts), the tail append uses the paper's **SBQ-CAS** strategy —
//! read, bounded delay, CAS — which shares TxCAS's delay placement but not
//! its scalable-failure property (§6.1). The scalable basket is identical
//! to the paper's, so enqueue contention still spreads across
//! per-thread basket cells instead of retrying the tail CAS.
//!
//! Elements are boxed and their addresses stored as basket elements; the
//! queue owns any elements still inside at drop time.

use crate::basket::SbqBasket;
use crate::modular::{EnqueuerState, ModularQueue, QueueConfig};
use absmem::native::{NativeCtx, NativeHeap};
use absmem::{DelayedCas, ThreadCtx};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// A scalable-baskets MPMC queue of `T`.
///
/// Create one queue, then one [`SbqHandle`] per thread with
/// [`Sbq::handle`]. Handles are cheap and `Send`; the queue itself is
/// shared behind an [`Arc`].
///
/// ```
/// use sbq::native::Sbq;
/// use std::sync::Arc;
///
/// let q = Arc::new(Sbq::<String>::new(4));
/// let mut h = q.handle();
/// h.enqueue("hello".to_string());
/// assert_eq!(h.dequeue(), Some("hello".to_string()));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct Sbq<T> {
    heap: Arc<NativeHeap>,
    queue: ModularQueue<SbqBasket, DelayedCas>,
    next_tid: AtomicUsize,
    max_threads: usize,
    _marker: PhantomData<T>,
}

// The queue hands boxed T values between threads.
unsafe impl<T: Send> Send for Sbq<T> {}
unsafe impl<T: Send> Sync for Sbq<T> {}

impl<T> Sbq<T> {
    /// Creates a queue for up to `max_threads` concurrently attached
    /// handles. The queue's nodes live in its own [`NativeHeap`], whose
    /// 2^24-word (128 MiB) reservation is address space, paid for only as
    /// nodes touch it.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0);
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let queue = ModularQueue::new(
            &mut ctx,
            SbqBasket::new(max_threads),
            DelayedCas::default(),
            QueueConfig {
                max_threads,
                reclaim: true,
                poison_on_free: false,
            },
        );
        Sbq {
            heap,
            queue,
            next_tid: AtomicUsize::new(0),
            max_threads,
            _marker: PhantomData,
        }
    }

    /// Creates a per-thread handle. Panics once `max_threads` handles have
    /// been issued: handle identity doubles as the basket cell index and
    /// the reclamation protector slot.
    pub fn handle(self: &Arc<Self>) -> SbqHandle<T> {
        let tid = self.next_tid.fetch_add(1, SeqCst);
        assert!(
            tid < self.max_threads,
            "more handles ({}) than max_threads ({})",
            tid + 1,
            self.max_threads
        );
        SbqHandle {
            q: Arc::clone(self),
            ctx: self.heap.ctx(tid),
            st: EnqueuerState::default(),
        }
    }
}

impl<T> Drop for Sbq<T> {
    fn drop(&mut self) {
        // Drain remaining elements so their boxes are released. We have
        // exclusive access here (`&mut self`).
        let mut ctx = self.heap.ctx(0);
        while let Some(bits) = self.queue.dequeue(&mut ctx) {
            // SAFETY: every element in the queue was produced by
            // Box::into_raw in `enqueue` and dequeued exactly once.
            drop(unsafe { Box::from_raw(bits as usize as *mut T) });
        }
    }
}

/// A per-thread handle onto an [`Sbq`].
pub struct SbqHandle<T> {
    q: Arc<Sbq<T>>,
    ctx: NativeCtx,
    st: EnqueuerState,
}

impl<T: Send> SbqHandle<T> {
    /// Appends `value` to the queue.
    pub fn enqueue(&mut self, value: T) {
        let bits = Box::into_raw(Box::new(value)) as usize as u64;
        debug_assert!(bits > 0 && bits <= crate::basket::ELEM_MAX);
        self.q.queue.enqueue(&mut self.ctx, &mut self.st, bits);
    }

    /// Removes and returns the oldest element, or `None` if the queue was
    /// observed empty.
    pub fn dequeue(&mut self) -> Option<T> {
        let bits = self.q.queue.dequeue(&mut self.ctx)?;
        // SAFETY: see Drop; each stored pointer is consumed exactly once
        // (the basket guarantees no element is extracted twice).
        Some(*unsafe { Box::from_raw(bits as usize as *mut T) })
    }

    /// Best-effort emptiness check (false negatives possible under
    /// concurrency, false positives not).
    pub fn is_empty(&mut self) -> bool {
        self.q.queue.is_empty(&mut self.ctx)
    }

    /// The handle's dense thread id.
    pub fn thread_id(&self) -> usize {
        self.ctx.thread_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip_preserves_values() {
        let q = Arc::new(Sbq::<Vec<u32>>::new(2));
        let mut h = q.handle();
        h.enqueue(vec![1, 2, 3]);
        h.enqueue(vec![]);
        assert_eq!(h.dequeue(), Some(vec![1, 2, 3]));
        assert_eq!(h.dequeue(), Some(vec![]));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn drop_releases_undequeued_elements() {
        // Miri-style leak check by proxy: drop counters.
        use std::sync::atomic::AtomicU64;
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        {
            let q = Arc::new(Sbq::<D>::new(2));
            let mut h = q.handle();
            for _ in 0..10 {
                h.enqueue(D);
            }
            let _ = h.dequeue(); // one dropped by caller
            drop(h);
        } // nine dropped by the queue
        assert_eq!(DROPS.load(SeqCst), 10);
    }

    #[test]
    fn handles_capped_at_max_threads() {
        let q = Arc::new(Sbq::<u32>::new(1));
        let _h = q.handle();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.handle()));
        assert!(r.is_err(), "second handle must panic");
    }

    #[test]
    fn mpmc_stress_conserves_elements() {
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER: u64 = 2_000;
        let q = Arc::new(Sbq::<u64>::new(PRODUCERS + CONSUMERS));
        let done = Arc::new(AtomicUsize::new(0));
        let got: Vec<Vec<u64>> = std::thread::scope(|s| {
            for p in 0..PRODUCERS as u64 {
                let mut h = q.handle();
                let done = Arc::clone(&done);
                s.spawn(move || {
                    for i in 0..PER {
                        h.enqueue(p * PER + i + 1);
                    }
                    done.fetch_add(1, SeqCst);
                });
            }
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let mut h = q.handle();
                    let done = Arc::clone(&done);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match h.dequeue() {
                                Some(v) => got.push(v),
                                None => {
                                    if done.load(SeqCst) == PRODUCERS && h.is_empty() {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = got.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=PRODUCERS as u64 * PER).collect();
        assert_eq!(all, expect, "every element dequeued exactly once");
    }

    #[test]
    fn per_producer_fifo_order_holds() {
        // Single producer, single consumer: strict FIFO.
        let q = Arc::new(Sbq::<u64>::new(2));
        let mut prod = q.handle();
        let mut cons = q.handle();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 1..=5_000u64 {
                    prod.enqueue(i);
                }
            });
            s.spawn(move || {
                let mut expect = 1u64;
                while expect <= 5_000 {
                    if let Some(v) = cons.dequeue() {
                        assert_eq!(v, expect, "FIFO violation");
                        expect += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }
}
