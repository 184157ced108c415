//! Determinism regression: a fixed workload must produce bit-identical
//! `RunReport`s on every run, and identical to the golden fingerprint
//! captured on the original mpsc-channel scheduler — so scheduler and
//! hot-loop rewrites provably preserve simulated results. Every golden
//! holds on both links (fibers and OS threads) with the fast path on and
//! off.
//!
//! The fixture disables delay jitter and spurious aborts (the only RNG
//! consumers), so any divergence is a scheduler-ordering bug, not noise.

use absmem::txn::{HtmOps, TxResult};
use absmem::ThreadCtx;
use coherence::machine::testhooks::run_on_threads;
use coherence::{ComponentSpec, Machine, MachineConfig, Program, RunReport, SimCtx};
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

/// Flattens the observable run result into one comparable string.
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
        "] commits={} conflicts={} explicit={} spurious={} tripped={} stalls={} fix_stalls={}",
        r.stats.tx_commits,
        r.stats.tx_aborts_conflict,
        r.stats.tx_aborts_explicit,
        r.stats.tx_aborts_spurious,
        r.stats.tripped_writers,
        r.stats.stalls,
        r.stats.fix_stalls
    ));
    s
}

/// A fixed 4-core workload covering the protocol broadside: contended
/// FAA and CAS, shared reads, exclusive writes, swap, delays, an HTM
/// transaction with retry, allocation/free, and a mid-run barrier.
/// `threads` runs it on the thread link instead of the default one.
/// `idle_gate` attaches a tick gate no core waits on — the fingerprint
/// must not move.
fn fixed_workload_full(
    cores: usize,
    dual_socket: bool,
    threads: bool,
    fast_path: bool,
    idle_gate: bool,
) -> RunReport {
    let mut cfg = if dual_socket {
        MachineConfig::dual_socket(cores.div_ceil(2))
    } else {
        MachineConfig::single_socket(cores)
    };
    cfg.delay_jitter_pct = 0;
    cfg.spurious_abort_ppm = 0;
    cfg.fast_path = fast_path;
    if idle_gate {
        cfg.components.push(idle_gate_on_core_0(61));
    }
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
                        // Transactional read-modify-write with retry.
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
    run(cfg, threads, programs, &shared)
}

/// Runs `programs` after a setup that allocates and initializes the
/// eight shared words they find through `shared`, on the thread link
/// when `threads` is set.
fn run(
    cfg: MachineConfig,
    threads: bool,
    programs: Vec<Program>,
    shared: &Arc<AtomicU64>,
) -> RunReport {
    let s2 = Arc::clone(shared);
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

/// The fixture without components attached, fast path on.
fn fixed_workload_on(cores: usize, dual_socket: bool, threads: bool) -> RunReport {
    fixed_workload_full(cores, dual_socket, threads, true, false)
}

/// The fixture on the default link (fibers on x86_64).
fn fixed_workload(cores: usize, dual_socket: bool) -> RunReport {
    fixed_workload_on(cores, dual_socket, false)
}

/// Asserts that the fixture matches `golden` under `fp` on both links,
/// with the fast path on and off.
fn assert_golden_everywhere(
    cores: usize,
    dual_socket: bool,
    fp: fn(&RunReport) -> String,
    golden: &str,
) {
    for threads in [false, true] {
        for fast_path in [true, false] {
            let got = fp(&fixed_workload_full(
                cores,
                dual_socket,
                threads,
                fast_path,
                false,
            ));
            assert_eq!(
                normalize(&got),
                normalize(golden),
                "{cores}-core fixture (dual_socket={dual_socket}) diverged from its golden \
                 (threads={threads} fast_path={fast_path})"
            );
        }
    }
}

/// Golden fingerprints captured from the seed (mpsc-channel) scheduler.
/// A scheduler or hot-loop rewrite must reproduce these exactly.
const GOLDEN_4_SINGLE: &str = "end=4313 core_end=[4230, 4313, 4319, 4137] \
    msgs=[GetS:35 GetM:58 Data:42 Inv:36 InvAck:36 Fwd-GetS:25 Fwd-GetM:26 DataOwner:51 WbData:25 ] \
    ops=[read:130 write:44 cas:40 faa:41 swap:1 delay:3 xbegin:2 xend:1 xabort:0 ] \
    commits=1 conflicts=1 explicit=0 spurious=0 tripped=0 stalls=48 fix_stalls=0";
const GOLDEN_6_DUAL: &str = "end=27774 core_end=[26814, 26130, 26313, 26124, 26420, 27774] \
    msgs=[GetS:89 GetM:166 Data:94 Inv:106 InvAck:106 Fwd-GetS:56 Fwd-GetM:105 DataOwner:161 WbData:56 ] \
    ops=[read:181 write:47 cas:80 faa:81 swap:1 delay:6 xbegin:5 xend:2 xabort:0 ] \
    commits=2 conflicts=3 explicit=0 spurious=0 tripped=1 stalls=147 fix_stalls=0";

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Paper-scale dual-socket golden: 88 cores, 44 per socket — the
/// geometry of the paper's evaluation machine (§6.1). Captured from the
/// fiber scheduler; `core_end` is summarized (min/max/sum) instead of
/// inlined so the golden stays reviewable at this width.
const GOLDEN_88_DUAL: &str = "end=251174 core_end_len=88 min=247363 max=251174 sum=21895762 \
    msgs=[GetS:1401 GetM:2557 Data:1489 Inv:1838 InvAck:1838 Fwd-GetS:757 Fwd-GetM:1712 DataOwner:2469 WbData:757 ] \
    ops=[read:2863 write:801 cas:880 faa:902 swap:22 delay:69 xbegin:47 xend:22 xabort:0 ] \
    commits=22 conflicts=25 explicit=0 spurious=0 tripped=2 stalls=2457 fix_stalls=0";

/// [`fingerprint`] with `core_end` folded to (len, min, max, sum) — at
/// 88 cores the full vector is pinned through the sum while the golden
/// string stays one line.
fn fingerprint_wide(r: &RunReport) -> String {
    let full = fingerprint(r);
    let folded = format!(
        "core_end_len={} min={} max={} sum={}",
        r.core_end.len(),
        r.core_end.iter().min().unwrap(),
        r.core_end.iter().max().unwrap(),
        r.core_end.iter().sum::<u64>()
    );
    let rest = &full[full.find(" msgs=[").unwrap()..];
    format!("end={} {}{}", r.end_time, folded, rest)
}

/// Both links must hold the golden at paper scale, not just on the
/// small fixtures — the thread link serves 89 real threads here.
#[test]
fn matches_golden_88_core_dual_socket() {
    assert_golden_everywhere(88, true, fingerprint_wide, GOLDEN_88_DUAL);
}

#[test]
fn repeated_runs_are_identical() {
    let a = fingerprint(&fixed_workload(4, false));
    for _ in 0..3 {
        let b = fingerprint(&fixed_workload(4, false));
        assert_eq!(a, b, "simulated results diverged between identical runs");
    }
}

#[test]
fn repeated_dual_socket_runs_are_identical() {
    let a = fingerprint(&fixed_workload(6, true));
    let b = fingerprint(&fixed_workload(6, true));
    assert_eq!(a, b);
}

#[test]
fn matches_seed_scheduler_golden_single_socket() {
    assert_golden_everywhere(4, false, fingerprint, GOLDEN_4_SINGLE);
}

#[test]
fn matches_seed_scheduler_golden_dual_socket() {
    assert_golden_everywhere(6, true, fingerprint, GOLDEN_6_DUAL);
}

/// Belt and braces: run both links side by side and compare the full
/// fingerprints directly (not just against the stored goldens).
#[test]
fn links_agree_with_each_other() {
    for &(cores, dual) in &[(2usize, false), (5, false), (6, true)] {
        let fibers = fingerprint(&fixed_workload_on(cores, dual, false));
        let threads = fingerprint(&fixed_workload_on(cores, dual, true));
        assert_eq!(
            fibers, threads,
            "fiber and thread links diverged at cores={cores} dual={dual}"
        );
    }
}

/// A tick gate on core 0, which never calls `wait_tick()`: every
/// firing only banks a tick, so no thread can see the gate.
fn idle_gate_on_core_0(period: u64) -> ComponentSpec {
    ComponentSpec::TickGate {
        core: 0,
        period,
        start: period,
        count: 0,
    }
}

/// A component no thread can see must leave the run byte-identical to
/// the component-free goldens: its ticks are ordinary events that touch
/// no line and no RNG, so the observable machine cannot move. This is
/// the component spine's central determinism claim.
#[test]
fn benign_component_matches_component_free_goldens() {
    let fp = fingerprint(&fixed_workload_full(4, false, false, true, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_4_SINGLE),
        "an idle tick gate perturbed the single-socket golden"
    );
    let fp = fingerprint(&fixed_workload_full(6, true, true, true, true));
    assert_eq!(
        normalize(&fp),
        normalize(GOLDEN_6_DUAL),
        "an idle tick gate perturbed the dual-socket golden (thread link)"
    );
}

/// The fixture under a randomized machine configuration derived from
/// `seed`, with every RNG-consuming fault knob live: delay jitter,
/// spurious aborts, scheduler perturbation, and a transactional capacity
/// limit. Cross-link bit-identity must survive all of them, because the
/// `Sim` RNG is consumed in submit order — which the one pump fixes for
/// both links.
fn randomized_faulty_workload_on(seed: u64, threads: bool) -> RunReport {
    randomized_faulty_workload_full(seed, threads, false)
}

/// As above, optionally with an idle tick gate attached *after* the
/// RNG-derived knobs, so the config derivation stream is untouched and
/// the fingerprint must match the component-free run.
fn randomized_faulty_workload_full(seed: u64, threads: bool, idle_gate: bool) -> RunReport {
    let mut rng = simrng::SimRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1f7);
    let cores = rng.gen_range_inclusive(2, 6) as usize;
    let dual = rng.gen_bool(0.4);
    let mut cfg = if dual {
        MachineConfig::dual_socket(cores.div_ceil(2))
    } else {
        MachineConfig::single_socket(cores)
    };
    cfg.delay_jitter_pct = rng.gen_range_inclusive(0, 80);
    cfg.spurious_abort_ppm = rng.gen_range_inclusive(0, 200_000);
    cfg.sched_perturb = rng.gen_range_inclusive(0, 500);
    // Capacity 0 = unbounded; small limits abort the fixture's 2-line
    // transaction, exercising the retry-then-give-up path.
    cfg.tx_capacity_lines = if rng.gen_bool(0.3) {
        rng.gen_range_inclusive(1, 8) as usize
    } else {
        0
    };
    cfg.microarch_fix = rng.gen_bool(0.5);
    cfg.seed = rng.next_u64();
    if idle_gate {
        cfg.components.push(idle_gate_on_core_0(97));
    }

    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst);
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
    run(cfg, threads, programs, &shared)
}

/// Differential fuzz across links: 32 random seeds, all fault knobs
/// active, fiber vs thread-link fingerprints must be identical — the
/// simfuzz harness depends on this to make its artifacts
/// link-independent. Each seed additionally runs with an idle tick
/// gate attached (default link), which must match the component-free
/// fingerprint byte for byte. Each seed's fingerprint
/// triple is one job on a `runner` pool; since every seed builds its own
/// `Machine`, the seeds are independent and the pool's submission-order
/// merge reports the *lowest* diverging seed whatever finishes first.
#[test]
fn links_agree_on_randomized_fault_injection_workloads() {
    let tasks: Vec<_> = (0..32u64)
        .map(|seed| {
            move || {
                (
                    fingerprint(&randomized_faulty_workload_on(seed, false)),
                    fingerprint(&randomized_faulty_workload_on(seed, true)),
                    fingerprint(&randomized_faulty_workload_full(seed, false, true)),
                )
            }
        })
        .collect();
    let (triples, _) = runner::run_all(runner::default_jobs(), tasks);
    for (seed, (fibers, threads, with_comp)) in triples.iter().enumerate() {
        assert_eq!(
            fibers, threads,
            "fiber and thread links diverged at fault seed {seed}"
        );
        assert_eq!(
            fibers, with_comp,
            "an idle tick gate changed the run at fault seed {seed}"
        );
    }
}
