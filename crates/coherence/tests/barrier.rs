//! Barrier primitive semantics: all participants resume at the same
//! simulated time, and phased workloads order correctly across it. Also
//! the edges of a run on both links: no programs, empty programs, and a
//! program that panics.

use absmem::ThreadCtx;
use coherence::machine::testhooks::run_on_threads;
use coherence::{Machine, MachineConfig, Program, RunReport, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Runs on the default link, or on the thread link when `threads` is set.
fn run_on(cfg: MachineConfig, threads: bool, setup: Program, programs: Vec<Program>) -> RunReport {
    let mut machine = Machine::new(cfg);
    if threads {
        run_on_threads(&mut machine, setup, programs)
    } else {
        machine.run(setup, programs)
    }
}

#[test]
fn barrier_aligns_local_clocks() {
    let cfg = MachineConfig::single_socket(4);
    let times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let programs: Vec<Program> = (0..4)
        .map(|i| {
            let times = Arc::clone(&times);
            Box::new(move |ctx: &mut SimCtx| {
                // Threads arrive at very different local times.
                ctx.delay(100 * (i as u64 + 1));
                ctx.barrier();
                times.lock().unwrap().push(ctx.now());
            }) as Program
        })
        .collect();
    Machine::new(cfg).run(Box::new(|_| {}), programs);
    let times = times.lock().unwrap();
    assert_eq!(times.len(), 4);
    assert!(
        times.iter().all(|&t| t == times[0]),
        "all threads must resume at the same instant: {times:?}"
    );
    assert!(times[0] >= 400, "resume time is the latest arrival");
}

#[test]
fn writes_before_barrier_visible_after() {
    let cfg = MachineConfig::single_socket(3);
    let shared = Arc::new(AtomicU64::new(0));
    let sums: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let programs: Vec<Program> = (0..3)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let sums = Arc::clone(&sums);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst);
                ctx.write(base + i as u64, (i as u64 + 1) * 10);
                ctx.barrier();
                let sum: u64 = (0..3).map(|j| ctx.read(base + j)).sum();
                sums.lock().unwrap().push(sum);
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(3);
            for j in 0..3 {
                ctx.write(a + j, 0);
            }
            s2.store(a, SeqCst);
        }),
        programs,
    );
    for s in sums.lock().unwrap().iter() {
        assert_eq!(*s, 60, "every pre-barrier write must be visible");
    }
}

/// Regression: a zero-thread run used to be one `.max()` call away from
/// an unhelpful iterator panic in the barrier-release path. It must
/// return a clean report instead.
#[test]
fn zero_thread_run_returns_clean_report() {
    for threads in [false, true] {
        let report = run_on(
            MachineConfig::single_socket(2),
            threads,
            Box::new(|ctx| {
                let a = ctx.alloc(2);
                ctx.write(a, 7);
            }),
            Vec::new(),
        );
        assert!(report.core_end.is_empty(), "no program cores ran");
        assert_eq!(report.stats.tx_commits, 0);
    }
}

/// Regression companion: programs whose bodies do nothing (no ops, no
/// barrier) must also complete cleanly on both links.
#[test]
fn all_empty_programs_return_clean_report() {
    for threads in [false, true] {
        let programs: Vec<Program> = (0..3)
            .map(|_| Box::new(|_: &mut SimCtx| {}) as Program)
            .collect();
        let report = run_on(
            MachineConfig::single_socket(3),
            threads,
            Box::new(|_| {}),
            programs,
        );
        assert_eq!(report.core_end.len(), 3);
    }
}

/// A program that panics mid-run surfaces from the run with its own
/// payload on both links, while its siblings are blocked in requests;
/// the thread link must unwind those siblings and return, not hang.
#[test]
fn program_panic_surfaces_its_own_message() {
    for threads in [false, true] {
        let programs: Vec<Program> = (0..4)
            .map(|i| {
                Box::new(move |ctx: &mut SimCtx| {
                    let a = ctx.alloc(1);
                    for _ in 0..3 {
                        ctx.faa(a, 1);
                    }
                    if i == 2 {
                        panic!("core {i} gave up mid-run");
                    }
                    for _ in 0..100 {
                        ctx.faa(a, 1);
                    }
                }) as Program
            })
            .collect();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_on(
                MachineConfig::single_socket(4),
                threads,
                Box::new(|_| {}),
                programs,
            )
        }));
        let payload = run.expect_err("a program panic must fail the run");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("core 2 gave up mid-run"),
            "threads={threads}: the run lost the program's panic message"
        );
    }
}

#[test]
fn consecutive_barriers_work() {
    let cfg = MachineConfig::single_socket(3);
    let order: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let programs: Vec<Program> = (0..3)
        .map(|i| {
            let order = Arc::clone(&order);
            Box::new(move |ctx: &mut SimCtx| {
                for phase in 0..3u32 {
                    ctx.delay(10 + i as u64 * 7);
                    order.lock().unwrap().push((i, phase));
                    ctx.barrier();
                }
            }) as Program
        })
        .collect();
    Machine::new(cfg).run(Box::new(|_| {}), programs);
    let order = order.lock().unwrap();
    // Phases must be fully separated: all phase-k records precede all
    // phase-(k+1) records.
    for w in order.windows(2) {
        assert!(
            w[0].1 <= w[1].1,
            "phase interleaving across barrier: {order:?}"
        );
    }
    assert_eq!(order.len(), 9);
}
