//! Memory-reclamation stress (paper Algorithm 7): with `poison_on_free`
//! every freed node is scribbled, so a use-after-free would surface as
//! wild values. These tests drive enough traffic that nodes retire and
//! their addresses recycle, then assert full conservation.

use absmem::native::{run_threads, NativeHeap};
use absmem::{StandardCas, ThreadCtx};
use sbq::modular::{EnqueuerState, ModularQueue, QueueConfig};
use sbq::SbqBasket;
use std::sync::Arc;

fn stress(threads: usize, per: u64, reclaim: bool) -> Vec<u64> {
    let heap = Arc::new(NativeHeap::new());
    let q = {
        let mut ctx = heap.ctx(0);
        ModularQueue::new(
            &mut ctx,
            SbqBasket::new(threads),
            StandardCas,
            QueueConfig {
                max_threads: threads,
                reclaim,
                poison_on_free: true,
            },
        )
    };
    let results = run_threads(&heap, threads, |ctx| {
        let tid = ctx.thread_id() as u64;
        let mut st = EnqueuerState::default();
        let mut got = Vec::new();
        for i in 0..per {
            q.enqueue(ctx, &mut st, (tid << 32) | (i + 1));
            if let Some(v) = q.dequeue(ctx) {
                got.push(v);
            }
        }
        while let Some(v) = q.dequeue(ctx) {
            got.push(v);
        }
        got
    });
    results.into_iter().flatten().collect()
}

#[test]
fn reclaiming_queue_conserves_elements_under_stress() {
    const THREADS: usize = 4;
    const PER: u64 = 3_000;
    let mut all = stress(THREADS, PER, true);
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len() as u64,
        THREADS as u64 * PER,
        "elements lost or duplicated under reclamation"
    );
    for &v in &all {
        let tid = v >> 32;
        let seq = v & 0xffff_ffff;
        assert!(
            tid < THREADS as u64 && (1..=PER).contains(&seq),
            "wild value {v:#x} (poison leak?)"
        );
    }
}

/// Runs `lifecycles` enqueue–dequeue pairs on one thread of a fresh
/// two-slot queue and returns the heap's frontier before and after them.
fn frontier_growth(reclaim: bool, lifecycles: u64) -> (u64, u64) {
    let heap = Arc::new(NativeHeap::new());
    let q = {
        let mut ctx = heap.ctx(0);
        ModularQueue::new(
            &mut ctx,
            SbqBasket::new(2),
            StandardCas,
            QueueConfig {
                max_threads: 2,
                reclaim,
                poison_on_free: true,
            },
        )
    };
    let before = heap.high_water();
    let mut ctx = heap.ctx(1);
    let mut st = EnqueuerState::default();
    for i in 0..lifecycles {
        q.enqueue(&mut ctx, &mut st, i + 1);
        assert_eq!(q.dequeue(&mut ctx), Some(i + 1));
    }
    (before, heap.high_water())
}

#[test]
fn reclamation_bounds_memory_growth() {
    // With reclamation, retired nodes return through the allocator's free
    // lists and the frontier stays flat however many nodes live and die;
    // without it, every node costs fresh address space.
    for lifecycles in [20_000, 50_000] {
        let (_, after) = frontier_growth(true, lifecycles);
        assert!(
            after <= 1_024,
            "reclaiming run reached word {after} after {lifecycles} lifecycles"
        );
    }
    let (before, after) = frontier_growth(false, 20_000);
    assert!(
        after - before >= 8 * 20_000,
        "non-reclaiming run grew only {} words over 20000 lifecycles",
        after - before
    );
}

#[test]
fn ms_queue_reclamation_under_stress() {
    const THREADS: usize = 4;
    const PER: u64 = 3_000;
    let heap = Arc::new(NativeHeap::new());
    let q = {
        let mut ctx = heap.ctx(0);
        baselines::MsQueue::new(&mut ctx, THREADS, true)
    };
    let results = run_threads(&heap, THREADS, |ctx| {
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
    let mut all: Vec<u64> = results.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, THREADS as u64 * PER);
}
