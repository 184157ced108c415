//! The paper's core insight, reproduced in one table: a CAS implemented as
//! an HTM transaction has *scalable failures*, while any standard atomic
//! RMW serializes through the coherence protocol (Figure 1).
//!
//! ```text
//! cargo run --release --example txcas_scaling
//! ```
//!
//! Runs both primitives on the simulated multicore at several contention
//! levels and prints latency per operation in simulated nanoseconds. The
//! FAA column should grow roughly linearly with the thread count; the
//! TxCAS column should flatten out beyond ~10 threads (at the cost of
//! higher latency when uncontended — the intra-transaction delay).

use absmem::ThreadCtx;
use coherence::{cycles_to_ns, Machine, MachineConfig, Program, SimCtx};
use sbq::txcas::{txn_cas, TxCasParams, TxCasStats};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

fn point(threads: usize, ops: u64, use_txcas: bool) -> f64 {
    let mut cfg = MachineConfig::single_socket(threads);
    cfg.check_invariants = false;
    let shared = Arc::new(AtomicU64::new(0));
    let cycles = Arc::new(Mutex::new(0u64));
    let programs: Vec<Program> = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let cycles = Arc::clone(&cycles);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                ctx.barrier();
                let t0 = ctx.now();
                let mut stats = TxCasStats::default();
                for _ in 0..ops {
                    if use_txcas {
                        let old = ctx.read(a);
                        txn_cas(ctx, &TxCasParams::default(), a, old, old + 1, &mut stats);
                    } else {
                        ctx.faa(a, 1);
                    }
                }
                *cycles.lock().unwrap() += ctx.now() - t0;
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            s2.store(a, SeqCst);
        }),
        programs,
    );
    let total = *cycles.lock().unwrap();
    cycles_to_ns(total) / (ops * threads as u64) as f64
}

/// Measured operations per thread at every contention level.
const OPS: u64 = 200;

fn main() {
    println!("threads\tFAA[ns/op]\tTxCAS[ns/op]");
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16, 24, 32, 44] {
        let faa = point(threads, OPS, false);
        let tx = point(threads, OPS, true);
        println!("{threads}\t{faa:.0}\t{tx:.0}");
        rows.push((threads, faa, tx));
    }
    // The headline shape: FAA grows, TxCAS flattens.
    let (_, faa_lo, tx_lo) = rows[1];
    let (_, faa_hi, tx_hi) = rows[rows.len() - 1];
    println!();
    println!(
        "FAA grew {:.1}x from 2 to 44 threads; TxCAS grew {:.1}x — {}",
        faa_hi / faa_lo,
        tx_hi / tx_lo,
        if faa_hi / faa_lo > 2.0 * (tx_hi / tx_lo) {
            "failures scale (paper's Figure 1 shape reproduced)"
        } else {
            "UNEXPECTED: check machine parameters"
        }
    );
}
