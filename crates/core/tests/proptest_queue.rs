//! Property-based tests of the SBQ building blocks against executable
//! reference models, driven by deterministic `simrng` scripts (the
//! workspace carries no external property-testing dependency).

use absmem::native::NativeHeap;
use absmem::{StandardCas, ThreadCtx};
use sbq::basket::{Basket, SbqBasket, NULL_ELEM};
use sbq::modular::{EnqueuerState, ModularQueue, QueueConfig};
use simrng::SimRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Sequential queue operations driven from a random script: the modular
/// SBQ must match a VecDeque exactly.
fn check_against_model(ops: &[bool], basket_cap: usize) {
    let heap = Arc::new(NativeHeap::new());
    let mut ctx = heap.ctx(0);
    let q = ModularQueue::new(
        &mut ctx,
        SbqBasket::new(basket_cap),
        StandardCas,
        QueueConfig {
            max_threads: basket_cap,
            reclaim: true,
            poison_on_free: true,
        },
    );
    let mut st = EnqueuerState::default();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next = 1u64;
    for &is_enq in ops {
        if is_enq {
            q.enqueue(&mut ctx, &mut st, next);
            model.push_back(next);
            next += 1;
        } else {
            assert_eq!(q.dequeue(&mut ctx), model.pop_front());
        }
    }
    // Drain and compare the remainder.
    while let Some(m) = model.pop_front() {
        assert_eq!(q.dequeue(&mut ctx), Some(m));
    }
    assert_eq!(q.dequeue(&mut ctx), None);
}

/// Random enqueue/dequeue script of length `1..max_len`.
fn random_ops(rng: &mut SimRng, max_len: usize) -> Vec<bool> {
    let n = 1 + rng.gen_usize(max_len - 1);
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

#[test]
fn sbq_matches_fifo_model() {
    let mut rng = SimRng::seed_from_u64(0xf1f0);
    for _ in 0..64 {
        let ops = random_ops(&mut rng, 400);
        check_against_model(&ops, 4);
    }
}

#[test]
fn sbq_matches_fifo_model_tiny_basket() {
    let mut rng = SimRng::seed_from_u64(0xf1f1);
    for _ in 0..64 {
        let ops = random_ops(&mut rng, 200);
        check_against_model(&ops, 1);
    }
}

/// Basket invariant: a sequential mix of inserts and extracts never loses
/// or duplicates an element, and once empty is indicated no extract
/// succeeds (the §5.3.2 property).
#[test]
fn basket_conserves_and_empty_is_sticky() {
    let mut rng = SimRng::seed_from_u64(0xba5e);
    for case in 0..64u32 {
        let cap = 4;
        let script: Vec<(usize, bool)> = {
            let n = 1 + rng.gen_usize(59);
            (0..n)
                .map(|_| (rng.gen_usize(4), rng.gen_bool(0.5)))
                .collect()
        };
        let b = SbqBasket::new(cap);
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let base = ctx.alloc(b.words());
        b.init(&mut ctx, base);

        let mut inserted: Vec<u64> = Vec::new();
        let mut extracted: Vec<u64> = Vec::new();
        let mut used_ids = [false; 4];
        let mut empty_seen = false;
        let mut v = 100u64;
        for (id, do_insert) in script {
            if do_insert && !used_ids[id] {
                v += 1;
                if b.insert(&mut ctx, base, v, id) {
                    inserted.push(v);
                }
                used_ids[id] = true;
            } else {
                let e = b.extract(&mut ctx, base, id);
                if e != NULL_ELEM {
                    assert!(
                        !empty_seen,
                        "case {case}: extract succeeded after empty indication"
                    );
                    extracted.push(e);
                } else {
                    empty_seen = true;
                }
                if b.is_empty(&mut ctx, base) {
                    empty_seen = true;
                }
            }
        }
        // Drain.
        loop {
            let e = b.extract(&mut ctx, base, 0);
            if e == NULL_ELEM {
                break;
            }
            assert!(
                !empty_seen,
                "case {case}: extract succeeded after empty indication"
            );
            extracted.push(e);
        }
        // No duplicates, and everything extracted was inserted.
        let mut ex = extracted.clone();
        ex.sort_unstable();
        ex.dedup();
        assert_eq!(ex.len(), extracted.len(), "case {case}: duplicate element");
        for e in &extracted {
            assert!(inserted.contains(e), "case {case}: phantom element {e}");
        }
    }
}

/// Non-proptest regression: a dequeue interleaved through many nodes
/// (basket capacity 2) exercises the node-skip path.
#[test]
fn dequeue_skips_emptied_nodes() {
    let heap = Arc::new(NativeHeap::new());
    let mut ctx = heap.ctx(0);
    let q = ModularQueue::new(
        &mut ctx,
        SbqBasket::new(2),
        StandardCas,
        QueueConfig {
            max_threads: 2,
            reclaim: false,
            poison_on_free: false,
        },
    );
    let mut st = EnqueuerState::default();
    for i in 1..=64u64 {
        q.enqueue(&mut ctx, &mut st, i);
    }
    for i in 1..=64u64 {
        assert_eq!(q.dequeue(&mut ctx), Some(i));
    }
    assert_eq!(q.dequeue(&mut ctx), None);
}
