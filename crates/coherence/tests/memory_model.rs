//! Memory-model validation: the simulated coherent memory must be
//! indistinguishable from a plain sequential memory for single-threaded
//! programs, and linearizable (here: value-conserving and
//! last-write-wins-consistent) for concurrent ones.

use absmem::txn::{HtmOps, TxResult};
use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// A small deterministic op script interpreted both on the simulator and
/// on a Vec<u64> reference memory.
#[derive(Debug, Clone, Copy)]
enum MOp {
    Read(u64),
    Write(u64, u64),
    Cas(u64, u64, u64),
    Faa(u64, u64),
    Swap(u64, u64),
}

fn script(seed: u64, len: usize, addrs: u64) -> Vec<MOp> {
    let mut x = seed | 1;
    let mut rnd = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    };
    (0..len)
        .map(|_| {
            let a = rnd() % addrs;
            match rnd() % 5 {
                0 => MOp::Read(a),
                1 => MOp::Write(a, rnd() % 100),
                2 => MOp::Cas(a, rnd() % 4, rnd() % 100),
                3 => MOp::Faa(a, rnd() % 10),
                _ => MOp::Swap(a, rnd() % 100),
            }
        })
        .collect()
}

fn run_on_ref(ops: &[MOp], mem: &mut [u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for &op in ops {
        match op {
            MOp::Read(a) => out.push(mem[a as usize]),
            MOp::Write(a, v) => mem[a as usize] = v,
            MOp::Cas(a, old, new) => {
                let ok = mem[a as usize] == old;
                if ok {
                    mem[a as usize] = new;
                }
                out.push(ok as u64);
            }
            MOp::Faa(a, v) => {
                out.push(mem[a as usize]);
                mem[a as usize] = mem[a as usize].wrapping_add(v);
            }
            MOp::Swap(a, v) => {
                out.push(mem[a as usize]);
                mem[a as usize] = v;
            }
        }
    }
    out
}

#[test]
fn single_thread_matches_sequential_memory() {
    for seed in [1u64, 9, 77, 1234] {
        let ops = script(seed, 400, 16);
        let mut ref_mem = vec![0u64; 16];
        let expect = run_on_ref(&ops, &mut ref_mem);

        let cfg = MachineConfig::single_socket(1);
        let base = Arc::new(AtomicU64::new(0));
        let got: Arc<Mutex<(Vec<u64>, Vec<u64>)>> = Arc::new(Mutex::new((Vec::new(), Vec::new())));
        let g2 = Arc::clone(&got);
        let b1 = Arc::clone(&base);
        let ops2 = ops.clone();
        let report = Machine::new(cfg).run(
            Box::new({
                let base = Arc::clone(&base);
                move |ctx| {
                    let a = ctx.alloc(16);
                    for i in 0..16 {
                        ctx.write(a + i, 0);
                    }
                    base.store(a, SeqCst);
                }
            }),
            vec![Box::new(move |ctx: &mut SimCtx| {
                let a = b1.load(SeqCst);
                let mut out = Vec::new();
                for &op in &ops2 {
                    match op {
                        MOp::Read(x) => out.push(ctx.read(a + x)),
                        MOp::Write(x, v) => ctx.write(a + x, v),
                        MOp::Cas(x, old, new) => out.push(ctx.cas(a + x, old, new) as u64),
                        MOp::Faa(x, v) => out.push(ctx.faa(a + x, v)),
                        MOp::Swap(x, v) => out.push(ctx.swap(a + x, v)),
                    }
                }
                let finals = (0..16).map(|i| ctx.read(a + i)).collect();
                *g2.lock().unwrap() = (out, finals);
            }) as Program],
        );
        let _ = report;
        let (out, finals) = got.lock().unwrap().clone();
        assert_eq!(out, expect, "seed {seed}: op results diverge");
        assert_eq!(finals, ref_mem, "seed {seed}: final memory diverges");
    }
}

#[test]
fn concurrent_increments_conserved_across_many_lines() {
    // 4 threads FAA over 8 lines in different orders; the total per line
    // must equal the number of increments targeting it.
    let threads = 4;
    let lines = 8u64;
    let per = 64u64;
    let mut cfg = MachineConfig::single_socket(threads);
    cfg.check_invariants = true; // exercise the invariant checker too
    let base = Arc::new(AtomicU64::new(0));
    let finals: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let programs: Vec<Program> = (0..threads)
        .map(|t| {
            let base = Arc::clone(&base);
            let finals = Arc::clone(&finals);
            Box::new(move |ctx: &mut SimCtx| {
                let a = base.load(SeqCst);
                for i in 0..per {
                    // Different stride per thread → different line order.
                    let line = (i * (t as u64 + 1)) % lines;
                    ctx.faa(a + line, 1);
                }
                ctx.barrier();
                if t == 0 {
                    let f = (0..lines).map(|i| ctx.read(a + i)).collect();
                    *finals.lock().unwrap() = f;
                }
            }) as Program
        })
        .collect();
    let b2 = Arc::clone(&base);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(lines as usize);
            for i in 0..lines {
                ctx.write(a + i, 0);
            }
            b2.store(a, SeqCst);
        }),
        programs,
    );
    let finals = finals.lock().unwrap();
    let total: u64 = finals.iter().sum();
    assert_eq!(total, threads as u64 * per, "increments lost: {finals:?}");
}

#[test]
fn mixed_transactional_and_plain_traffic_stays_coherent() {
    // One thread runs transactions over a line while others do plain
    // FAAs on a second line sharing nothing: the transaction must never
    // abort (no conflicts) and both results must be exact.
    let mut cfg = MachineConfig::single_socket(3);
    cfg.check_invariants = true;
    let base = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new((0u64, 0u64)));
    let programs: Vec<Program> = (0..3)
        .map(|t| {
            let base = Arc::clone(&base);
            let out = Arc::clone(&out);
            Box::new(move |ctx: &mut SimCtx| {
                let a = base.load(SeqCst);
                if t == 0 {
                    for _ in 0..50 {
                        let r = htm_like(ctx, a);
                        assert!(r.is_ok(), "unexpected abort: {r:?}");
                    }
                    out.lock().unwrap().0 = ctx.read(a);
                } else {
                    for _ in 0..50 {
                        ctx.faa(a + 1, 1);
                    }
                    ctx.barrier();
                    if t == 1 {
                        out.lock().unwrap().1 = ctx.read(a + 1);
                    }
                    return;
                }
                ctx.barrier();
            }) as Program
        })
        .collect();
    let b2 = Arc::clone(&base);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(2);
            ctx.write(a, 0);
            ctx.write(a + 1, 0);
            b2.store(a, SeqCst);
        }),
        programs,
    );
    let (tx_total, faa_total) = *out.lock().unwrap();
    assert_eq!(tx_total, 50, "transactional increments lost");
    assert_eq!(faa_total, 100, "plain increments lost");
}

fn htm_like(ctx: &mut SimCtx, a: u64) -> TxResult<()> {
    ctx.tx_begin()?;
    let v = ctx.tx_read(a)?;
    ctx.tx_write(a, v + 1)?;
    ctx.tx_end()?;
    Ok(())
}
