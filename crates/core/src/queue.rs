//! The assembled SBQ variants evaluated in the paper (§6.1).
//!
//! Both are the modular baskets queue with the scalable basket; they
//! differ only in the tail-append CAS strategy:
//!
//! * **SBQ-HTM** uses [`TxCas`] and therefore requires an HTM-capable
//!   backend ([`htm::HtmOps`]) — in this repository, the coherence
//!   simulator.
//! * **SBQ-CAS** uses [`absmem::DelayedCas`] (same delay placement, plain
//!   CAS) and runs on any backend; it is the paper's control for isolating
//!   TxCAS's contribution from the scalable basket's.

use crate::basket::SbqBasket;
use crate::modular::{ModularQueue, QueueConfig};
use crate::txcas::{TxCas, TxCasParams};
use absmem::{DelayedCas, ThreadCtx};

/// SBQ-HTM: scalable basket + TxCAS append.
pub type SbqHtmQueue = ModularQueue<SbqBasket, TxCas>;

/// SBQ-CAS: scalable basket + delayed plain CAS append.
pub type SbqCasQueue = ModularQueue<SbqBasket, DelayedCas>;

/// Builds an SBQ-HTM queue. `basket_capacity` is the cell count (the
/// paper uses the machine's hardware thread count, 44); `inserters` bounds
/// the extraction scan (the number of enqueuer threads in the run).
pub fn new_sbq_htm<C: ThreadCtx>(
    ctx: &mut C,
    basket_capacity: usize,
    inserters: usize,
    params: TxCasParams,
    cfg: QueueConfig,
) -> SbqHtmQueue {
    ModularQueue::new(
        ctx,
        SbqBasket::with_inserters(basket_capacity, inserters),
        TxCas::new(params),
        cfg,
    )
}

/// Builds an SBQ-CAS queue with the same delay the TxCAS variant uses.
pub fn new_sbq_cas<C: ThreadCtx>(
    ctx: &mut C,
    basket_capacity: usize,
    inserters: usize,
    delay_cycles: u64,
    cfg: QueueConfig,
) -> SbqCasQueue {
    ModularQueue::new(
        ctx,
        SbqBasket::with_inserters(basket_capacity, inserters),
        DelayedCas { delay_cycles },
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::EnqueuerState;
    use absmem::native::NativeHeap;
    use std::sync::Arc;

    #[test]
    fn sbq_cas_fifo_on_native_backend() {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = new_sbq_cas(
            &mut ctx,
            8,
            8,
            10,
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
}
