//! Native backend: the abstract word memory realized over a flat array of
//! `AtomicU64` with `SeqCst` orderings, matching the C11 `seq_cst` accesses
//! of the paper's evaluated implementations.

use crate::{Addr, ThreadCtx};
use simalloc::{ThreadCache, WordPool};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

/// Nominal clock used to convert between cycles and nanoseconds: the
/// evaluation machine's Xeon E5-2699 v4 base clock.
pub const GHZ: f64 = 2.2;

/// Measured spin-loop iterations per microsecond, calibrated once per
/// process. Used to realize delays too short for `Instant` polling
/// (granularity is tens of ns) as a counted spin instead of a guess.
fn spins_per_us() -> u64 {
    static CAL: OnceLock<u64> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Time a fixed spin batch against the monotonic clock; repeat and
        // keep the fastest (least-preempted) sample.
        const BATCH: u64 = 200_000;
        let mut best_ns = u64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                std::hint::spin_loop();
            }
            best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
        }
        (BATCH * 1_000 / best_ns.max(1)).max(1)
    })
}

/// Busy-waits for `cycles` cycles at the nominal [`GHZ`] clock — the
/// calibrated realization of [`ThreadCtx::delay`] on real hardware,
/// shared so harness code can reproduce algorithm delays exactly.
/// Delays under ~40 ns use the counted spin calibration (`Instant`
/// polling would round them to its own granularity); longer delays poll
/// the monotonic clock.
pub fn busy_wait_cycles(cycles: u64) {
    let target_ns = cycles as f64 / GHZ;
    if target_ns < 40.0 {
        let spins = (target_ns * spins_per_us() as f64 / 1_000.0) as u64;
        for _ in 0..spins.max(1) {
            std::hint::spin_loop();
        }
        return;
    }
    let target_ns = target_ns as u64;
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < target_ns {
        std::hint::spin_loop();
    }
}

/// Words every [`NativeHeap`] reserves: 2^24, 128 MiB of address space.
pub const HEAP_WORDS: usize = 1 << 24;

/// A native heap of 64-bit words shared by all threads, reserving
/// [`HEAP_WORDS`] words.
pub struct NativeHeap {
    words: Box<[AtomicU64]>,
    pool: Arc<WordPool>,
    epoch: Instant,
}

impl NativeHeap {
    /// Creates a heap. Word 0 is the NULL sentinel. The [`HEAP_WORDS`]
    /// reservation is address space: the system allocator maps its zero
    /// pages on first touch, so a heap's memory grows only with the words
    /// its queues use, as with the paper's Memkind. Allocation past the
    /// reservation panics.
    pub fn new() -> Self {
        // SAFETY: all-zero bytes are a valid `AtomicU64` (value 0).
        let words = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(HEAP_WORDS).assume_init() };
        NativeHeap {
            words,
            pool: Arc::new(WordPool::new(8)),
            epoch: Instant::now(),
        }
    }

    /// Creates the per-thread context for thread `tid`. The context has no
    /// thread group: [`ThreadCtx::barrier`] panics on it. Use
    /// [`run_threads`] (or attach one with [`NativeCtx::with_barrier`]) for
    /// phased multi-thread workloads.
    pub fn ctx(self: &Arc<Self>, tid: usize) -> NativeCtx {
        NativeCtx {
            heap: Arc::clone(self),
            tid,
            cache: self.pool.thread_cache(),
            barrier: None,
        }
    }

    /// The allocator's frontier: one past the highest word address ever
    /// handed out. Freed words are reused below it, so it bounds the words
    /// the heap has touched.
    pub fn high_water(&self) -> u64 {
        self.pool.high_water()
    }

    #[inline]
    fn word(&self, a: Addr) -> &AtomicU64 {
        debug_assert_ne!(a, 0, "access to NULL");
        &self.words[a as usize]
    }
}

impl Default for NativeHeap {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread handle onto a [`NativeHeap`].
pub struct NativeCtx {
    heap: Arc<NativeHeap>,
    tid: usize,
    cache: ThreadCache,
    /// The thread group's rendezvous, shared by every context of one run;
    /// `None` for standalone contexts, whose `barrier()` panics.
    barrier: Option<Arc<Barrier>>,
}

impl NativeCtx {
    /// Attaches this context to a thread group's barrier (sized to the
    /// number of participating threads). All contexts that will
    /// rendezvous must share one `Arc<Barrier>`.
    pub fn with_barrier(mut self, barrier: Arc<Barrier>) -> NativeCtx {
        self.barrier = Some(barrier);
        self
    }
}

impl ThreadCtx for NativeCtx {
    #[inline]
    fn thread_id(&self) -> usize {
        self.tid
    }

    #[inline]
    fn read(&mut self, a: Addr) -> u64 {
        self.heap.word(a).load(SeqCst)
    }

    #[inline]
    fn write(&mut self, a: Addr, v: u64) {
        self.heap.word(a).store(v, SeqCst)
    }

    #[inline]
    fn cas(&mut self, a: Addr, old: u64, new: u64) -> bool {
        self.heap
            .word(a)
            .compare_exchange(old, new, SeqCst, SeqCst)
            .is_ok()
    }

    #[inline]
    fn faa(&mut self, a: Addr, v: u64) -> u64 {
        self.heap.word(a).fetch_add(v, SeqCst)
    }

    #[inline]
    fn swap(&mut self, a: Addr, v: u64) -> u64 {
        self.heap.word(a).swap(v, SeqCst)
    }

    fn delay(&mut self, cycles: u64) {
        busy_wait_cycles(cycles)
    }

    fn alloc(&mut self, words: usize) -> Addr {
        let a = self.cache.alloc(words);
        let end = a as usize + words;
        assert!(
            end <= HEAP_WORDS,
            "native heap exhausted: words {a}..{end} lie past the \
             {HEAP_WORDS}-word (2^24) reservation"
        );
        a
    }

    fn free(&mut self, a: Addr, words: usize) {
        self.cache.free(a, words)
    }

    fn now(&self) -> u64 {
        (self.heap.epoch.elapsed().as_nanos() as f64 * GHZ) as u64
    }

    fn barrier(&mut self) {
        self.barrier
            .as_ref()
            .expect(
                "barrier() on a native context without a thread group: \
                 use run_threads or NativeCtx::with_barrier",
            )
            .wait();
    }
}

/// Runs `nthreads` closures concurrently, each with its own [`NativeCtx`],
/// and returns their results in thread-id order. The contexts share a
/// barrier sized to the group, so the closures may use
/// [`ThreadCtx::barrier`] for phased workloads.
pub fn run_threads<R: Send>(
    heap: &Arc<NativeHeap>,
    nthreads: usize,
    f: impl Fn(&mut NativeCtx) -> R + Sync,
) -> Vec<R> {
    let barrier = Arc::new(Barrier::new(nthreads));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads)
            .map(|tid| {
                let mut ctx = heap.ctx(tid).with_barrier(Arc::clone(&barrier));
                let f = &f;
                s.spawn(move || f(&mut ctx))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_primitives_match_spec() {
        let heap = Arc::new(NativeHeap::new());
        let mut c = heap.ctx(0);
        let a = c.alloc(1);
        c.write(a, 10);
        assert_eq!(c.faa(a, 5), 10);
        assert_eq!(c.read(a), 15);
        assert_eq!(c.swap(a, 99), 15);
        assert_eq!(c.read(a), 99);
        assert!(c.cas(a, 99, 1));
        assert!(!c.cas(a, 99, 2));
        assert_eq!(c.read(a), 1);
    }

    #[test]
    fn fresh_words_read_zero_across_the_reservation() {
        let heap = Arc::new(NativeHeap::new());
        let mut c = heap.ctx(0);
        for a in [1, HEAP_WORDS as u64 / 2, HEAP_WORDS as u64 - 1] {
            assert_eq!(c.read(a), 0, "word {a}");
        }
        assert_eq!(heap.high_water(), 8, "reads allocate nothing");
    }

    #[test]
    #[should_panic(expected = "past the 16777216-word (2^24) reservation")]
    fn alloc_past_the_reservation_panics() {
        let heap = Arc::new(NativeHeap::new());
        heap.ctx(0).alloc(HEAP_WORDS);
    }

    #[test]
    fn concurrent_faa_loses_no_increments() {
        let heap = Arc::new(NativeHeap::new());
        let a = {
            let mut c = heap.ctx(0);
            let a = c.alloc(1);
            c.write(a, 0);
            a
        };
        const N: u64 = 10_000;
        run_threads(&heap, 4, |ctx| {
            for _ in 0..N {
                ctx.faa(a, 1);
            }
        });
        assert_eq!(heap.ctx(0).read(a), 4 * N);
    }

    #[test]
    fn concurrent_cas_elects_single_winner_per_round() {
        let heap = Arc::new(NativeHeap::new());
        let a = {
            let mut c = heap.ctx(0);
            let a = c.alloc(1);
            c.write(a, 0);
            a
        };
        let wins = run_threads(&heap, 4, |ctx| {
            let mut w = 0u64;
            for round in 0..1000u64 {
                if ctx.cas(a, round, round + 1) {
                    w += 1;
                } else {
                    // Wait for the round to finish before the next attempt.
                    while ctx.read(a) <= round {
                        std::hint::spin_loop();
                    }
                }
            }
            w
        });
        assert_eq!(wins.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn delay_spends_roughly_requested_time() {
        let heap = Arc::new(NativeHeap::new());
        let mut c = heap.ctx(0);
        let t0 = Instant::now();
        c.delay(220_000); // 100 µs at 2.2 GHz
        let el = t0.elapsed().as_micros();
        assert!(el >= 95, "delay too short: {el} µs");
    }

    #[test]
    fn short_busy_wait_returns_quickly() {
        // A 44-cycle (20 ns) delay must not degenerate into a clock poll
        // loop; allow a loose 1 s upper bound for scheduling noise.
        let t0 = Instant::now();
        for _ in 0..100 {
            busy_wait_cycles(44);
        }
        assert!(t0.elapsed().as_millis() < 1000);
    }

    #[test]
    fn now_is_monotonic() {
        let heap = Arc::new(NativeHeap::new());
        let mut c = heap.ctx(0);
        let a = c.now();
        c.delay(10_000);
        assert!(c.now() > a);
    }
}
