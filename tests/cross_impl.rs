//! Cross-implementation consistency: independent implementations of the
//! same abstract queue must agree operation-for-operation on identical
//! input sequences.

use absmem::native::NativeHeap;
use absmem::StandardCas;
use baselines::MsQueue;
use sbq::modular::{EnqueuerState, ModularQueue, QueueConfig};
use sbq::{SbqBasket, SingleBasket};
use std::collections::VecDeque;
use std::sync::Arc;

/// A deterministic pseudo-random op sequence (enqueue with probability
/// `p_enq`/256).
fn op_sequence(len: usize, p_enq: u8, seed: u64) -> Vec<bool> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            ((x.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8) < p_enq
        })
        .collect()
}

/// Runs an op sequence against a queue, returning dequeue results in
/// order. A macro rather than a closure pair so both operations can
/// borrow the same context mutably.
macro_rules! drive {
    ($ops:expr, |$v:ident| $enq:expr, $deq:expr) => {{
        let mut v = 0u64;
        let mut out: Vec<Option<u64>> = Vec::new();
        for &is_enq in $ops {
            if is_enq {
                v += 1;
                let $v = v;
                $enq;
            } else {
                out.push($deq);
            }
        }
        out
    }};
}

/// Reference model: std VecDeque.
fn reference(ops: &[bool]) -> Vec<Option<u64>> {
    let mut q = VecDeque::new();
    let mut v = 0u64;
    let mut out = Vec::new();
    for &is_enq in ops {
        if is_enq {
            v += 1;
            q.push_back(v);
        } else {
            out.push(q.pop_front());
        }
    }
    out
}

#[test]
fn modular_single_basket_matches_standalone_ms_queue_and_model() {
    for (seed, p_enq) in [(1u64, 160u8), (7, 100), (42, 220), (99, 40)] {
        let ops = op_sequence(3_000, p_enq, seed);
        let expect = reference(&ops);

        // Standalone Michael–Scott.
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let ms = MsQueue::new(&mut ctx, 2);
        let got_ms = drive!(&ops, |v| ms.enqueue(&mut ctx, v), ms.dequeue(&mut ctx));
        assert_eq!(
            got_ms, expect,
            "MS-Queue diverges from the model (seed {seed})"
        );

        // Modular queue instantiated as MS (SingleBasket).
        let heap2 = Arc::new(NativeHeap::new());
        let mut ctx2 = heap2.ctx(0);
        let mq = ModularQueue::new(
            &mut ctx2,
            SingleBasket,
            StandardCas,
            QueueConfig {
                max_threads: 1,
                poison_on_free: true,
            },
        );
        let mut st = EnqueuerState::default();
        let got_modular = drive!(
            &ops,
            |v| mq.enqueue(&mut ctx2, &mut st, v),
            mq.dequeue(&mut ctx2)
        );
        assert_eq!(
            got_modular, expect,
            "modular SingleBasket queue diverges (seed {seed})"
        );
    }
}

#[test]
fn sbq_single_threaded_matches_model() {
    // With one thread SBQ must behave as a plain FIFO regardless of the
    // basket machinery.
    for (seed, p_enq) in [(3u64, 150u8), (11, 200), (23, 80)] {
        let ops = op_sequence(3_000, p_enq, seed);
        let expect = reference(&ops);
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = ModularQueue::new(
            &mut ctx,
            SbqBasket::new(4),
            StandardCas,
            QueueConfig {
                max_threads: 4,
                poison_on_free: true,
            },
        );
        let mut st = EnqueuerState::default();
        let got = drive!(
            &ops,
            |v| q.enqueue(&mut ctx, &mut st, v),
            q.dequeue(&mut ctx)
        );
        assert_eq!(got, expect, "SBQ diverges from the model (seed {seed})");
    }
}

#[test]
fn wf_queue_single_threaded_matches_model() {
    for (seed, p_enq) in [(5u64, 170u8), (13, 90)] {
        let ops = op_sequence(3_000, p_enq, seed);
        let expect = reference(&ops);
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = baselines::WfQueue::new(&mut ctx, 1);
        let mut h = q.handle(&mut ctx);
        let got = drive!(
            &ops,
            |v| q.enqueue(&mut ctx, &mut h, v),
            q.dequeue(&mut ctx, &mut h)
        );
        assert_eq!(
            got, expect,
            "WF-Queue diverges from the model (seed {seed})"
        );
    }
}

#[test]
fn cc_queue_single_threaded_matches_model() {
    for (seed, p_enq) in [(17u64, 140u8), (29, 210)] {
        let ops = op_sequence(2_000, p_enq, seed);
        let expect = reference(&ops);
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let q = baselines::CcQueue::new(&mut ctx);
        let mut h = q.handle(&mut ctx);
        let got = drive!(
            &ops,
            |v| q.enqueue(&mut ctx, &mut h, v),
            q.dequeue(&mut ctx, &mut h)
        );
        assert_eq!(
            got, expect,
            "CC-Queue diverges from the model (seed {seed})"
        );
    }
}
