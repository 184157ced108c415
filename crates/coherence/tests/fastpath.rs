//! Differential suite for the uncontended fast path
//! (`MachineConfig::fast_path`): with the knob on, local-hit operations
//! retire inline at submission — no directory messages, no wheel events —
//! and the result must be *byte-identical* to the full protocol: same
//! end-times, same per-core histories, same message/op/abort counters,
//! same trace. The slow path is the semantic reference; these tests are
//! what let it stay one.
//!
//! The fast-path hit/fallback counters are deliberately excluded from the
//! comparison: they measure *how* ops retired, which is exactly what the
//! two configurations legitimately disagree on.

use absmem::txn::{HtmOps, TxResult};
use absmem::ThreadCtx;
use coherence::machine::testhooks::run_on_threads;
use coherence::sim::{OpKind, OpOutcome, Sim};
use coherence::{ComponentSpec, HomePolicy, Machine, MachineConfig, Program, RunReport, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

const MSG_KINDS: &[&str] = &[
    "GetS",
    "GetM",
    "Data",
    "Inv",
    "InvAck",
    "Fwd-GetS",
    "Fwd-GetM",
    "DataOwner",
    "WbData",
];
const OP_KINDS: &[&str] = &[
    "read", "write", "cas", "faa", "swap", "delay", "xbegin", "xend", "xabort",
];

/// Flattens everything observable about a run — end-times, counters, and
/// a digest of the full message/transaction trace — into one comparable
/// string. Fast-path hit/fallback counters are excluded (see module doc).
fn fingerprint(r: &RunReport) -> String {
    let mut s = format!("end={} core_end={:?}", r.end_time, r.core_end);
    s.push_str(" msgs=[");
    for k in MSG_KINDS {
        s.push_str(&format!("{}:{} ", k, r.stats.msg(k)));
    }
    s.push_str("] ops=[");
    for k in OP_KINDS {
        s.push_str(&format!("{}:{} ", k, r.stats.op(k)));
    }
    s.push_str(&format!(
        "] commits={} conflicts={} explicit={} spurious={} capacity={} tripped={} stalls={} \
         fix_stalls={} trace={:#x}",
        r.stats.tx_commits,
        r.stats.tx_aborts_conflict,
        r.stats.tx_aborts_explicit,
        r.stats.tx_aborts_spurious,
        r.stats.tx_aborts_capacity,
        r.stats.tripped_writers,
        r.stats.stalls,
        r.stats.fix_stalls,
        trace_digest(r),
    ));
    s
}

/// FNV-1a over the debug rendering of every trace event, order-sensitive.
fn trace_digest(r: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in &r.trace {
        for b in format!("{ev:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The determinism fixture's mixed workload (contended FAA/CAS, shared
/// reads, private writes, an HTM transaction with retry, a barrier),
/// parameterized over the fast-path knob and the link, with the full
/// trace recorded.
fn fixture(cores: usize, dual_socket: bool, fast_path: bool, threads: bool) -> RunReport {
    let mut cfg = if dual_socket {
        MachineConfig::dual_socket(cores.div_ceil(2))
    } else {
        MachineConfig::single_socket(cores)
    };
    cfg.delay_jitter_pct = 0;
    cfg.spurious_abort_ppm = 0;
    cfg.fast_path = fast_path;
    cfg.trace = true;
    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst);
                match i % 4 {
                    0 => {
                        for _ in 0..40 {
                            ctx.faa(base, 1);
                        }
                        ctx.barrier();
                        let mut tries = 0;
                        loop {
                            tries += 1;
                            let r = (|| -> TxResult<()> {
                                ctx.tx_begin()?;
                                let v = ctx.tx_read(base + 1)?;
                                ctx.tx_delay(20)?;
                                ctx.tx_write(base + 2, v + 1)?;
                                ctx.tx_end()?;
                                Ok(())
                            })();
                            if r.is_ok() || tries > 8 {
                                break;
                            }
                        }
                    }
                    1 => {
                        for _ in 0..40 {
                            let old = ctx.read(base);
                            ctx.cas(base, old, old + 1);
                        }
                        ctx.barrier();
                        for k in 0..8 {
                            let _ = ctx.read(base + k);
                        }
                    }
                    2 => {
                        for k in 0..30 {
                            ctx.write(base + 3, k);
                        }
                        ctx.barrier();
                        let extra = ctx.alloc(4);
                        for k in 0..4 {
                            ctx.write(extra + k, k * 7);
                        }
                        let _ = ctx.swap(base + 5, 99);
                        ctx.free(extra, 4);
                    }
                    _ => {
                        for _ in 0..10 {
                            for k in 0..8 {
                                let _ = ctx.read(base + k);
                            }
                        }
                        ctx.barrier();
                        ctx.delay(100);
                        let _ = ctx.faa(base + 1, 3);
                    }
                }
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let setup: Program = Box::new(move |ctx| {
        let a = ctx.alloc(8);
        for k in 0..8 {
            ctx.write(a + k, k);
        }
        s2.store(a, SeqCst);
    });
    let mut machine = Machine::new(cfg);
    if threads {
        run_on_threads(&mut machine, setup, programs)
    } else {
        machine.run(setup, programs)
    }
}

/// The golden fixtures must be byte-identical — histories, end-times, and
/// trace digests — with the fast path on and off, on both links.
#[test]
fn goldens_identical_with_fast_path_on_and_off() {
    // 88 cores = the paper's dual-socket machine; the fast path must
    // stay invisible at full scale, not just on the small fixtures.
    for &(cores, dual) in &[(4usize, false), (6, true), (88, true)] {
        for &threads in &[false, true] {
            let on = fixture(cores, dual, true, threads);
            let off = fixture(cores, dual, false, threads);
            assert_eq!(
                fingerprint(&on),
                fingerprint(&off),
                "fast path diverged from the slow reference at cores={cores} dual={dual} \
                 threads={threads}"
            );
            assert_eq!(
                on.stats.fastpath_hits + off.stats.fastpath_hits,
                on.stats.fastpath_hits,
                "slow-path run counted fast-path hits"
            );
        }
    }
}

/// A private-working-set workload — each core hammers its own lines —
/// must actually *use* the fast path: after the first miss per line,
/// every op is an uncontended local hit.
#[test]
fn uncontended_workload_retires_inline() {
    let run = |fast_path: bool| -> RunReport {
        let mut cfg = MachineConfig::single_socket(4);
        cfg.delay_jitter_pct = 0;
        cfg.fast_path = fast_path;
        let programs: Vec<Program> = (0..4)
            .map(|i| {
                Box::new(move |ctx: &mut SimCtx| {
                    let base = ctx.alloc(4);
                    for k in 0..100u64 {
                        ctx.write(base, k + i);
                        let _ = ctx.read(base);
                        let _ = ctx.faa(base + 1, 1);
                        let _ = ctx.cas(base + 2, k, k + 1);
                        let _ = ctx.swap(base + 3, k);
                    }
                }) as Program
            })
            .collect();
        Machine::new(cfg).run(Box::new(|_| {}), programs)
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(
        format!("{} {:?}", on.end_time, on.core_end),
        format!("{} {:?}", off.end_time, off.core_end),
        "uncontended timings diverged"
    );
    let total_ops: u64 = OP_KINDS.iter().map(|k| on.stats.op(k)).sum();
    assert!(
        on.stats.fastpath_hits * 2 > total_ops,
        "fast path admitted only {} of {} ops on a private working set",
        on.stats.fastpath_hits,
        total_ops
    );
    assert_eq!(off.stats.fastpath_hits, 0);
    assert_eq!(off.stats.fastpath_fallbacks, 0);
}

/// Randomized fixture with every fault knob live *except* scheduler
/// perturbation (forced to 0 so the fast path stays armed — with
/// `sched_perturb > 0` it disables itself and the comparison would be
/// vacuous).
fn randomized_workload(seed: u64, fast_path: bool) -> RunReport {
    let mut rng = simrng::SimRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7a3e);
    let cores = rng.gen_range_inclusive(2, 6) as usize;
    let dual = rng.gen_bool(0.4);
    let mut cfg = if dual {
        MachineConfig::dual_socket(cores.div_ceil(2))
    } else {
        MachineConfig::single_socket(cores)
    };
    cfg.delay_jitter_pct = rng.gen_range_inclusive(0, 80);
    cfg.spurious_abort_ppm = rng.gen_range_inclusive(0, 200_000);
    cfg.sched_perturb = 0;
    cfg.tx_capacity_lines = if rng.gen_bool(0.3) {
        rng.gen_range_inclusive(1, 8) as usize
    } else {
        0
    };
    cfg.microarch_fix = rng.gen_bool(0.5);
    cfg.seed = rng.next_u64();
    // Drawn after every older knob, so each seed keeps its earlier
    // machine and only gains these: NUMA homes, an interrupt source
    // (aborts that land between a transactional op's submission and its
    // issue) and occupancy-free directories.
    cfg.home_policy = match rng.gen_range_inclusive(0, 2) {
        0 => HomePolicy::Fixed,
        1 => HomePolicy::Interleave,
        _ => HomePolicy::FirstTouch,
    };
    if rng.gen_bool(0.5) {
        cfg.components.push(ComponentSpec::Interrupt {
            period: rng.gen_range_inclusive(30, 399),
            start: rng.gen_range_inclusive(0, 299),
            cost: rng.gen_range_inclusive(0, 59),
            victim: None,
        });
    }
    if rng.gen_range_inclusive(0, 2) == 0 {
        cfg.dir_occupancy = 0;
        cfg.cache_occupancy = rng.gen_range_inclusive(0, 2);
    }
    cfg.fast_path = fast_path;
    cfg.trace = true;

    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst);
                // A private stretch (fast-path food) ...
                let mine = ctx.alloc(2);
                for k in 0..10 {
                    ctx.write(mine, k);
                    let _ = ctx.read(mine);
                    let _ = ctx.faa(mine + 1, 1);
                }
                // ... then the contended mixed stretch.
                for _ in 0..20 {
                    ctx.faa(base, 1);
                }
                ctx.barrier();
                let mut tries = 0;
                loop {
                    tries += 1;
                    let r = (|| -> TxResult<()> {
                        ctx.tx_begin()?;
                        let v = ctx.tx_read(base + 1 + (i as u64 % 3))?;
                        ctx.tx_delay(10)?;
                        ctx.tx_write(base + 4, v + 1)?;
                        ctx.tx_end()?;
                        Ok(())
                    })();
                    if r.is_ok() || tries > 6 {
                        break;
                    }
                }
                let _ = ctx.swap(base + 5, i as u64);
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(8);
            for k in 0..8 {
                ctx.write(a + k, k);
            }
            s2.store(a, SeqCst);
        }),
        programs,
    )
}

/// Differential fuzz slice: 128 random machine configurations and
/// workloads, fast path on vs off, byte-identical fingerprints (including
/// the trace digest). Parallel over a `runner` pool; each seed builds its
/// own `Machine`, so the seeds are independent.
#[test]
fn fuzz_slice_identical_with_fast_path_on_and_off() {
    let tasks: Vec<_> = (0..128u64)
        .map(|seed| {
            move || {
                (
                    fingerprint(&randomized_workload(seed, true)),
                    fingerprint(&randomized_workload(seed, false)),
                )
            }
        })
        .collect();
    let (pairs, _) = runner::run_all(runner::default_jobs(), tasks);
    for (seed, (on, off)) in pairs.iter().enumerate() {
        assert_eq!(
            on, off,
            "fast path diverged from the slow reference at fuzz seed {seed}"
        );
    }
}

/// Regression for the `submit_op` time-discipline assertions: a thread's
/// local time legitimately lags the event clock (the clock advances while
/// the thread runs user code), so a lagging `at` must be clamped forward,
/// never scheduled into the simulator's past. Exercises both the slow
/// path (cold miss) and the fast path (local hit); under
/// `debug_assertions` the engine's internal asserts fire on any
/// violation.
#[test]
fn lagging_submission_never_schedules_into_the_past() {
    let mut sim = Sim::new(Arc::new(MachineConfig::single_socket(2)));
    let addr = 0x40;

    // Cold FAA: full protocol round trip, advances the clock well past 0.
    sim.submit_op(0, 0, OpKind::Faa(addr, 1));
    while sim.resumes.is_empty() {
        assert!(sim.step(), "engine stalled before completing the op");
    }
    let r = sim.resumes.pop().unwrap();
    assert_eq!(r.core, 0);
    assert!(r.time >= sim.now());
    let clock = sim.now();
    assert!(clock > 0, "round trip should have advanced the clock");

    // Lagging resubmission (at=0 < clock) on the now-owned line: the
    // fast path admits it, and its completion must sit at or after the
    // clock, not at `at`.
    sim.submit_op(0, 0, OpKind::Faa(addr, 1));
    assert_eq!(
        sim.stats.fastpath_hits, 1,
        "owned-line RMW should take the fast path"
    );
    while sim.resumes.is_empty() {
        assert!(sim.step(), "engine stalled before completing the op");
    }
    let r = sim.resumes.pop().unwrap();
    assert_eq!(r.core, 0);
    assert!(
        r.time >= clock,
        "fast-path retirement at {} precedes the clock {}",
        r.time,
        clock
    );
    assert!(matches!(r.outcome, OpOutcome::Val(1)));

    // Lagging cold miss on a second core: slow path, same discipline.
    sim.submit_op(1, 0, OpKind::Read(addr));
    while sim.resumes.is_empty() {
        assert!(sim.step(), "engine stalled before completing the read");
    }
    let r = sim.resumes.pop().unwrap();
    assert_eq!(r.core, 1);
    assert!(r.time >= clock);
    assert!(matches!(r.outcome, OpOutcome::Val(2)));
}

/// Simulated memory spans 2^32 words, so a line id fits a `u32`: an op
/// on a word past it panics at submission, naming the word, before the
/// line table grows to reach it.
#[test]
#[should_panic(expected = "word 0x100000000 is past the simulated memory's 2^32 words")]
fn submission_past_the_word_space_panics() {
    let mut sim = Sim::new(Arc::new(MachineConfig::single_socket(2)));
    sim.submit_op(0, 0, OpKind::Read(1 << 32));
}
