//! Run the full SBQ-HTM queue on the simulated HTM multicore — the
//! configuration the paper evaluates — and print enqueue statistics.
//!
//! ```text
//! cargo run --release --example sbq_on_sim
//! ```
//!
//! Eight producers fill the queue through TxCAS-appends; the run report
//! shows how the contended appends resolved: a handful of commits (one
//! per appended node) and conflict aborts that *cost nothing*, because
//! every aborted enqueuer deposited its element into the winner's basket
//! instead of retrying.

use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use sbq::basket::SbqBasket;
use sbq::modular::{EnqueuerState, ModularQueue};
use sbq::txcas::{TxCas, TxCasParams};
use sbq::QueueConfig;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

const THREADS: usize = 8;
const PER_THREAD: u64 = 50;

fn qcfg() -> QueueConfig {
    QueueConfig {
        max_threads: THREADS,
        poison_on_free: false,
    }
}

fn main() {
    let mut cfg = MachineConfig::single_socket(THREADS);
    cfg.check_invariants = false;
    let base = Arc::new(AtomicU64::new(0));
    let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let mut programs: Vec<Program> = Vec::new();
    for _ in 0..THREADS {
        let base = Arc::clone(&base);
        let drained = Arc::clone(&drained);
        programs.push(Box::new(move |ctx: &mut SimCtx| {
            let q: ModularQueue<SbqBasket, TxCas> = ModularQueue::from_base(
                base.load(SeqCst),
                SbqBasket::new(THREADS),
                TxCas::new(TxCasParams::default()),
                qcfg(),
            );
            let tid = ctx.thread_id() as u64;
            let mut st = EnqueuerState::default();
            ctx.barrier();
            for i in 0..PER_THREAD {
                q.enqueue(ctx, &mut st, (tid << 32) | (i + 1));
            }
            ctx.barrier();
            // Thread 0 drains and verifies afterwards.
            if tid == 0 {
                let mut out = drained.lock().unwrap();
                while let Some(v) = q.dequeue(ctx) {
                    out.push(v);
                }
            }
        }));
    }

    let b2 = Arc::clone(&base);
    let report = Machine::new(cfg).run(
        Box::new(move |ctx| {
            let q = ModularQueue::new(
                ctx,
                SbqBasket::new(THREADS),
                TxCas::new(TxCasParams::default()),
                qcfg(),
            );
            b2.store(q.base(), SeqCst);
        }),
        programs,
    );

    let drained = drained.lock().unwrap();
    assert_eq!(drained.len() as u64, THREADS as u64 * PER_THREAD);
    println!(
        "enqueued {} elements from {THREADS} simulated threads in {:.1} µs simulated time",
        drained.len(),
        coherence::cycles_to_ns(report.end_time) / 1e3,
    );
    println!(
        "TxCAS appends: {} commits, {} conflict aborts (profited, not retried), {} tripped writers",
        report.stats.tx_commits, report.stats.tx_aborts_conflict, report.stats.tripped_writers
    );
    println!(
        "coherence traffic: {} GetM, {} Inv, {} Fwd-GetM",
        report.stats.msg("GetM"),
        report.stats.msg("Inv"),
        report.stats.msg("Fwd-GetM"),
    );
    // Per-producer FIFO check.
    let mut last = [0u64; THREADS];
    for &v in drained.iter() {
        let t = (v >> 32) as usize;
        let s = v & 0xffff_ffff;
        assert!(s > last[t], "per-producer order violated");
        last[t] = s;
    }
    println!("per-producer FIFO order verified — sbq_on_sim OK");
}
