//! Regression tests for the §3.3 "pending GetM" behaviour: a transaction
//! aborted while its write's GetM is in flight leaves a *headless*
//! request behind; the thread continues immediately and may access the
//! same line again, which must merge into the in-flight request (MSHR
//! behaviour) instead of deadlocking or double-requesting.

use absmem::txn::{HtmOps, TxResult};
use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Two cores race transactional writes; the loser's GetM continues
/// headless while the loser immediately re-reads the line. Terminates
/// (no deadlock) and the re-read returns a coherent value.
#[test]
fn aborted_txn_write_then_immediate_reread() {
    let cfg = MachineConfig::single_socket(2);
    let shared = Arc::new(AtomicU64::new(0));
    let out: Arc<Mutex<Vec<(usize, bool, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let programs: Vec<Program> = (0..2)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let out = Arc::clone(&out);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                // Both become sharers, then race a transactional write
                // with a long pre-write delay for one and none for the
                // other, so exactly one loses mid-GetM or mid-delay.
                let _ = ctx.read(a);
                ctx.barrier();
                let r = (|| -> TxResult<()> {
                    ctx.tx_begin()?;
                    let v = ctx.tx_read(a)?;
                    if i == 0 {
                        ctx.tx_delay(40)?;
                    }
                    ctx.tx_write(a, v + 10 + i as u64)?;
                    ctx.tx_end()?;
                    Ok(())
                })();
                // Immediately read the same line — on the loser this must
                // merge with its headless GetM.
                let seen = ctx.read(a);
                out.lock().unwrap().push((i, r.is_ok(), seen));
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let report = Machine::new(cfg).run(
        Box::new(move |ctx| {
            let addr = ctx.alloc(1);
            ctx.write(addr, 0);
            s2.store(addr, SeqCst);
        }),
        programs,
    );
    let out = out.lock().unwrap();
    assert_eq!(out.len(), 2, "both threads must terminate");
    let winners = out.iter().filter(|(_, ok, _)| *ok).count();
    assert!(winners >= 1, "at least one transaction commits");
    if winners == 1 {
        // The loser's immediate re-read must observe the winner's value.
        let (_, _, winner_val) = out.iter().find(|(_, ok, _)| *ok).unwrap();
        let (_, _, loser_val) = out.iter().find(|(_, ok, _)| !*ok).unwrap();
        assert_eq!(
            loser_val, winner_val,
            "post-abort read must see the committed value"
        );
    }
    assert!(report.stats.tx_commits >= 1);
}

/// Hammer the pattern: repeated transactional CAS-like races where losers
/// instantly retry with a read of the contested line. This is the exact
/// shape that deadlocked a one-outstanding-request cache model.
#[test]
fn txcas_retry_storm_terminates() {
    let shared = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..6)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                ctx.barrier();
                let mut successes = 0u64;
                for _ in 0..30 {
                    // read-tx-write with no delay: losers abort at or
                    // after the write step, leaving headless GetMs, then
                    // immediately re-read.
                    let old = ctx.read(a);
                    let r = (|| -> TxResult<()> {
                        ctx.tx_begin()?;
                        let v = ctx.tx_read(a)?;
                        if v != old {
                            return Err(ctx.tx_abort(1));
                        }
                        ctx.tx_write(a, v + 1)?;
                        ctx.tx_end()?;
                        Ok(())
                    })();
                    if r.is_ok() {
                        successes += 1;
                    }
                }
                done.fetch_add(successes, SeqCst);
                let _ = i;
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let final_val = {
        let shared = Arc::clone(&shared);
        let out = Arc::new(AtomicU64::new(0));
        let o2 = Arc::clone(&out);
        let mut programs = programs;
        programs.push(Box::new(move |ctx: &mut SimCtx| {
            let a = shared.load(SeqCst);
            ctx.barrier();
            // Wait out the storm, then read the total.
            ctx.delay(200_000);
            o2.store(ctx.read(a), SeqCst);
        }) as Program);
        let mut cfg2 = MachineConfig::single_socket(7);
        cfg2.check_invariants = false;
        Machine::new(cfg2).run(
            Box::new(move |ctx| {
                let addr = ctx.alloc(1);
                ctx.write(addr, 0);
                s2.store(addr, SeqCst);
            }),
            programs,
        );
        out.load(SeqCst)
    };
    // Every committed transaction incremented by exactly 1.
    assert_eq!(
        final_val,
        done.load(SeqCst),
        "committed increments must all land"
    );
    assert!(final_val > 0, "some transactions must succeed");
}
