//! Uniform adapters for running the evaluated queues on *any*
//! [`ThreadCtx`] backend. Each adapter publishes itself as a descriptor
//! address created in the setup phase and re-attached by every measured
//! thread, so one adapter definition serves the coherence simulator and
//! the native-atomics backend alike.

use absmem::{CasStrategy, DelayedCas, StandardCas, ThreadCtx};
use baselines::{CcHandle, CcQueue, MsQueue, WfHandle, WfQueue};
use sbq::basket::SbqBasket;
use sbq::modular::{EnqueuerState, ModularQueue, QueueConfig};
use sbq::txcas::{TxCas, TxCasParams};

/// Queue construction parameters shared across the suite. Every queue
/// frees what it retires; the baskets and MS queues use the paper's
/// epoch scheme (Algorithm 7).
#[derive(Debug, Clone, Copy)]
pub struct QueueParams {
    /// Protector-array size: total threads attached to the queue.
    pub max_threads: usize,
    /// Active enqueuers (bounds the basket extraction scan, §6.1).
    pub enqueuers: usize,
    /// Basket cell count (the paper fixes 44).
    pub basket_capacity: usize,
    /// TxCAS tuning for SBQ-HTM. On the simulator these delays are exact
    /// simulated cycles inside/around the hardware transaction.
    /// `intra_delay` is also SBQ-CAS's pre-CAS delay (the paper gives it
    /// the same delay as TxCAS) and, on the native substrate (no HTM),
    /// the busy-wait of the [`DelayedCas`] stand-in: a calibrated
    /// `absmem::native::busy_wait_cycles` of `intra_delay / 2.2` ns.
    pub txcas: TxCasParams,
}

impl Default for QueueParams {
    fn default() -> Self {
        QueueParams {
            max_threads: 64,
            enqueuers: 64,
            basket_capacity: 44,
            txcas: TxCasParams::default(),
        }
    }
}

impl QueueParams {
    /// Parameters for correctness runs (fuzz plans, component scenarios):
    /// short TxCAS delays buy more schedules per simulated cycle, and few
    /// retries let injected-abort storms reach the fallback path quickly.
    pub fn for_checking(threads: usize) -> QueueParams {
        QueueParams {
            max_threads: threads,
            enqueuers: threads,
            basket_capacity: threads.max(44),
            txcas: TxCasParams {
                intra_delay: 200,
                post_abort_delay: 40,
                max_retries: 12,
            },
        }
    }

    fn queue_config(&self) -> QueueConfig {
        QueueConfig {
            max_threads: self.max_threads,
            poison_on_free: false,
        }
    }

    fn basket(&self) -> SbqBasket {
        SbqBasket::with_inserters(
            self.basket_capacity,
            self.enqueuers.min(self.basket_capacity),
        )
    }
}

/// How the TxCAS-based queues (SBQ-HTM, SBQ-Striped) realize their
/// contended tail CAS on a given substrate. The simulator provides real
/// HTM, so it runs the paper's TxCAS; native hardware without RTM runs
/// the read–delay–CAS control ([`DelayedCas`]), which the paper and
/// `absmem` document as the best available TxCAS approximation (it is
/// exactly what the typed `sbq::native::Sbq` queue uses).
pub trait Substrate: ThreadCtx + Sized + 'static {
    /// Strategy for the contended tail CAS on this substrate.
    type TailCas: CasStrategy<Self> + 'static;

    /// Builds the tail-CAS strategy from the queue parameters.
    fn tail_cas(p: &QueueParams) -> Self::TailCas;
}

impl Substrate for coherence::SimCtx {
    type TailCas = TxCas;

    fn tail_cas(p: &QueueParams) -> TxCas {
        TxCas::new(p.txcas)
    }
}

impl Substrate for absmem::native::NativeCtx {
    type TailCas = DelayedCas;

    fn tail_cas(p: &QueueParams) -> DelayedCas {
        DelayedCas {
            delay_cycles: p.txcas.intra_delay,
        }
    }
}

/// A queue runnable on backend context `C` with per-thread state.
pub trait QueueAdapter<C: ThreadCtx>: Sized {
    /// Human-readable series name (matches the paper's legend).
    const NAME: &'static str;

    /// Creates the queue in the setup phase; returns its descriptor base.
    fn create(ctx: &mut C, p: &QueueParams) -> u64;

    /// Re-attaches a measured thread to the published queue.
    fn attach(base: u64, ctx: &mut C, p: &QueueParams) -> Self;

    /// Enqueues a value (nonzero, below the basket element max).
    fn enqueue(&mut self, ctx: &mut C, v: u64);

    /// Dequeues a value.
    fn dequeue(&mut self, ctx: &mut C) -> Option<u64>;
}

/// SBQ-HTM: scalable basket + TxCAS (the contribution). On substrates
/// without HTM the tail CAS degrades to the delayed-CAS stand-in (see
/// [`Substrate`]).
pub struct SbqHtmQ<C: Substrate> {
    q: ModularQueue<SbqBasket, C::TailCas>,
    st: EnqueuerState,
}

impl<C: Substrate> QueueAdapter<C> for SbqHtmQ<C> {
    const NAME: &'static str = "SBQ-HTM";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        ModularQueue::new(ctx, p.basket(), C::tail_cas(p), p.queue_config()).base()
    }

    fn attach(base: u64, ctx: &mut C, p: &QueueParams) -> Self {
        let _ = ctx;
        SbqHtmQ {
            q: ModularQueue::from_base(base, p.basket(), C::tail_cas(p), p.queue_config()),
            st: EnqueuerState::default(),
        }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, &mut self.st, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx)
    }
}

/// SBQ-CAS: scalable basket + delayed plain CAS (the control).
pub struct SbqCasQ {
    q: ModularQueue<SbqBasket, DelayedCas>,
    st: EnqueuerState,
}

impl<C: ThreadCtx> QueueAdapter<C> for SbqCasQ {
    const NAME: &'static str = "SBQ-CAS";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        let strat = DelayedCas {
            delay_cycles: p.txcas.intra_delay,
        };
        ModularQueue::new(ctx, p.basket(), strat, p.queue_config()).base()
    }

    fn attach(base: u64, ctx: &mut C, p: &QueueParams) -> Self {
        let _ = ctx;
        let strat = DelayedCas {
            delay_cycles: p.txcas.intra_delay,
        };
        SbqCasQ {
            q: ModularQueue::from_base(base, p.basket(), strat, p.queue_config()),
            st: EnqueuerState::default(),
        }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, &mut self.st, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx)
    }
}

/// SBQ-HTM with the experimental striped basket (the paper's §8 future
/// work: scalable dequeues). Compared against the stock basket by the
/// `ablate-deq` driver.
pub struct SbqStripedQ<C: Substrate> {
    q: ModularQueue<sbq::StripedBasket, C::TailCas>,
    st: EnqueuerState,
}

impl<C: Substrate> SbqStripedQ<C> {
    fn basket(p: &QueueParams) -> sbq::StripedBasket {
        sbq::StripedBasket::with_inserters(p.basket_capacity, p.enqueuers.min(p.basket_capacity))
    }
}

impl<C: Substrate> QueueAdapter<C> for SbqStripedQ<C> {
    const NAME: &'static str = "SBQ-Striped";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        ModularQueue::new(ctx, Self::basket(p), C::tail_cas(p), p.queue_config()).base()
    }

    fn attach(base: u64, ctx: &mut C, p: &QueueParams) -> Self {
        let _ = ctx;
        SbqStripedQ {
            q: ModularQueue::from_base(base, Self::basket(p), C::tail_cas(p), p.queue_config()),
            st: EnqueuerState::default(),
        }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, &mut self.st, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx)
    }
}

/// BQ-Original: LIFO sealed basket + plain CAS.
pub struct BqOriginalQ {
    q: baselines::BqOriginal,
    st: EnqueuerState,
}

impl<C: ThreadCtx> QueueAdapter<C> for BqOriginalQ {
    const NAME: &'static str = "BQ-Original";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        baselines::new_bq_original(ctx, p.queue_config()).base()
    }

    fn attach(base: u64, ctx: &mut C, p: &QueueParams) -> Self {
        let _ = ctx;
        BqOriginalQ {
            q: ModularQueue::from_base(base, baselines::LifoBasket, StandardCas, p.queue_config()),
            st: EnqueuerState::default(),
        }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, &mut self.st, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx)
    }
}

/// WF-Queue: the FAA-based comparator.
pub struct WfQ {
    q: WfQueue,
    h: WfHandle,
}

impl<C: ThreadCtx> QueueAdapter<C> for WfQ {
    const NAME: &'static str = "WF-Queue";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        WfQueue::new(ctx, p.max_threads).base()
    }

    fn attach(base: u64, ctx: &mut C, p: &QueueParams) -> Self {
        let q = WfQueue::from_base(base, p.max_threads);
        let h = q.handle(ctx);
        WfQ { q, h }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, &mut self.h, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx, &mut self.h)
    }
}

/// CC-Queue: the combining comparator.
pub struct CcQ {
    q: CcQueue,
    h: CcHandle,
}

impl<C: ThreadCtx> QueueAdapter<C> for CcQ {
    const NAME: &'static str = "CC-Queue";

    fn create(ctx: &mut C, _p: &QueueParams) -> u64 {
        CcQueue::new(ctx).base()
    }

    fn attach(base: u64, ctx: &mut C, _p: &QueueParams) -> Self {
        let q = CcQueue::from_base(base);
        let h = q.handle(ctx);
        CcQ { q, h }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, &mut self.h, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx, &mut self.h)
    }
}

/// Michael–Scott: the classic base case (not in the paper's figures but
/// useful context and a framework cross-check).
pub struct MsQ {
    q: MsQueue,
}

impl<C: ThreadCtx> QueueAdapter<C> for MsQ {
    const NAME: &'static str = "MS-Queue";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        MsQueue::new(ctx, p.max_threads).base()
    }

    fn attach(base: u64, _ctx: &mut C, p: &QueueParams) -> Self {
        MsQ {
            q: MsQueue::from_base(base, p.max_threads),
        }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx)
    }
}

/// The suite's queue selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    SbqHtm,
    SbqCas,
    /// The experimental striped-basket SBQ (§8 future work).
    SbqStriped,
    BqOriginal,
    WfQueue,
    CcQueue,
    MsQueue,
}

/// Monomorphic continuation for [`QueueKind::visit`]: implement this to
/// get code instantiated with the concrete adapter type of a runtime
/// kind. The one `match` over all seven kinds lives in `visit`; every
/// driver (history recording, workloads, fuzzing) builds on it instead of
/// repeating the dispatch.
pub trait QueueVisitor<C: Substrate> {
    type Out;
    fn visit<Q: QueueAdapter<C> + 'static>(self) -> Self::Out;
}

impl QueueKind {
    /// Every implementation in the tree, in fuzz-rotation order.
    pub const ALL: [QueueKind; 7] = [
        QueueKind::SbqHtm,
        QueueKind::SbqCas,
        QueueKind::SbqStriped,
        QueueKind::BqOriginal,
        QueueKind::WfQueue,
        QueueKind::CcQueue,
        QueueKind::MsQueue,
    ];

    /// The queues of the paper's Figures 5–7, in legend order.
    pub const PAPER_SET: [QueueKind; 5] = [
        QueueKind::BqOriginal,
        QueueKind::CcQueue,
        QueueKind::SbqCas,
        QueueKind::SbqHtm,
        QueueKind::WfQueue,
    ];

    /// Series name.
    pub fn name(&self) -> &'static str {
        match self {
            QueueKind::SbqHtm => "SBQ-HTM",
            QueueKind::SbqCas => "SBQ-CAS",
            QueueKind::SbqStriped => "SBQ-Striped",
            QueueKind::BqOriginal => "BQ-Original",
            QueueKind::WfQueue => "WF-Queue",
            QueueKind::CcQueue => "CC-Queue",
            QueueKind::MsQueue => "MS-Queue",
        }
    }

    /// Parses a series name (case-insensitive, dashes optional).
    pub fn parse(s: &str) -> Option<QueueKind> {
        let k = s.to_lowercase().replace(['-', '_'], "");
        Some(match k.as_str() {
            "sbqhtm" | "sbq" => QueueKind::SbqHtm,
            "sbqcas" => QueueKind::SbqCas,
            "sbqstriped" | "striped" => QueueKind::SbqStriped,
            "bqoriginal" | "bq" => QueueKind::BqOriginal,
            "wfqueue" | "wf" => QueueKind::WfQueue,
            "ccqueue" | "cc" => QueueKind::CcQueue,
            "msqueue" | "ms" => QueueKind::MsQueue,
            _ => return None,
        })
    }

    /// Dispatches `v` on this kind's concrete adapter type for context
    /// `C` — the single point where a runtime [`QueueKind`] becomes a
    /// compile-time [`QueueAdapter`].
    pub fn visit<C: Substrate, V: QueueVisitor<C>>(self, v: V) -> V::Out {
        match self {
            QueueKind::SbqHtm => v.visit::<SbqHtmQ<C>>(),
            QueueKind::SbqCas => v.visit::<SbqCasQ>(),
            QueueKind::SbqStriped => v.visit::<SbqStripedQ<C>>(),
            QueueKind::BqOriginal => v.visit::<BqOriginalQ>(),
            QueueKind::WfQueue => v.visit::<WfQ>(),
            QueueKind::CcQueue => v.visit::<CcQ>(),
            QueueKind::MsQueue => v.visit::<MsQ>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back() {
        for k in QueueKind::ALL {
            assert_eq!(QueueKind::parse(k.name()), Some(k));
        }
    }

    #[test]
    fn visit_matches_kind_name() {
        struct NameOf;
        impl<C: Substrate> QueueVisitor<C> for NameOf {
            type Out = &'static str;
            fn visit<Q: QueueAdapter<C> + 'static>(self) -> &'static str {
                Q::NAME
            }
        }
        for k in QueueKind::ALL {
            assert_eq!(k.visit::<coherence::SimCtx, _>(NameOf), k.name());
            assert_eq!(k.visit::<absmem::native::NativeCtx, _>(NameOf), k.name());
        }
    }
}
