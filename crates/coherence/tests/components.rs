//! Component-spine behaviour: interrupt sources abort transactions with
//! `txn::INTERRUPT` and stay deterministic across runs and links;
//! tick gates pace `wait_tick()` consumers (banking early releases), and
//! a gate no core waits on is provably benign; and a paced thread with
//! no gate fails the deadlock assertion with a hint instead of hanging.

use absmem::txn::{self, HtmOps};
use absmem::ThreadCtx;
use coherence::machine::testhooks::run_on_threads;
use coherence::{ComponentSpec, Machine, MachineConfig, Program, RunReport, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// `cores` threads, each committing `txns` transactions that read,
/// dwell, and increment one shared counter word. The dwell keeps the
/// transaction window open long enough for a periodic interrupt source
/// to land inside it. `threads` runs it on the thread link instead of
/// the default one.
fn txn_workload(
    mut cfg: MachineConfig,
    txns: u64,
    statuses: Arc<Mutex<Vec<u32>>>,
    threads: bool,
) -> RunReport {
    let cores = cfg.cores;
    cfg.delay_jitter_pct = 0;
    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let statuses = Arc::clone(&statuses);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                let mut committed = 0;
                while committed < txns {
                    let attempt = (|| {
                        ctx.tx_begin()?;
                        let v = ctx.tx_read(a)?;
                        ctx.tx_delay(200)?;
                        ctx.tx_write(a, v + 1)?;
                        ctx.tx_end()
                    })();
                    match attempt {
                        Ok(()) => committed += 1,
                        Err(abort) => statuses.lock().unwrap().push(abort.status),
                    }
                }
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let setup: Program = Box::new(move |ctx| {
        let a = ctx.alloc(1);
        ctx.write(a, 0);
        s2.store(a, SeqCst);
    });
    let mut machine = Machine::new(cfg);
    if threads {
        run_on_threads(&mut machine, setup, programs)
    } else {
        machine.run(setup, programs)
    }
}

fn interrupt_cfg(cores: usize) -> MachineConfig {
    let mut cfg = MachineConfig::single_socket(cores);
    cfg.components.push(ComponentSpec::Interrupt {
        period: 900,
        start: 400,
        cost: 150,
        victim: None,
    });
    cfg
}

#[test]
fn interrupt_source_aborts_transactions_with_interrupt_status() {
    let statuses = Arc::new(Mutex::new(Vec::new()));
    let report = txn_workload(interrupt_cfg(2), 25, Arc::clone(&statuses), false);
    assert_eq!(report.stats.tx_commits, 50, "every txn eventually commits");
    assert!(
        report.stats.interrupts_fired > 0,
        "the source never fired: {:?}",
        report.stats
    );
    assert!(
        report.stats.tx_aborts_interrupt > 0,
        "no interrupt landed inside a transaction window: {:?}",
        report.stats
    );
    assert!(report.stats.interrupts_fired >= report.stats.tx_aborts_interrupt);
    // The total-abort accessor folds the new cause in.
    assert!(report.stats.tx_aborts() >= report.stats.tx_aborts_interrupt);
    let statuses = statuses.lock().unwrap();
    let interrupted: Vec<u32> = statuses
        .iter()
        .copied()
        .filter(|&s| txn::is_interrupt(s))
        .collect();
    assert_eq!(
        interrupted.len() as u64,
        report.stats.tx_aborts_interrupt,
        "every interrupt abort reaches the program exactly once"
    );
    for s in interrupted {
        assert!(
            s & txn::RETRY != 0,
            "interrupt aborts are retryable: {s:#x}"
        );
        assert!(!txn::is_explicit(s) && !txn::is_conflict(s) && !txn::is_capacity(s));
    }
}

#[test]
fn interrupted_runs_are_deterministic_and_link_independent() {
    let fingerprint = |r: &RunReport| {
        format!(
            "end={} core_end={:?} commits={} interrupts={} int_aborts={} conflicts={}",
            r.end_time,
            r.core_end,
            r.stats.tx_commits,
            r.stats.interrupts_fired,
            r.stats.tx_aborts_interrupt,
            r.stats.tx_aborts_conflict,
        )
    };
    let run = |threads| {
        fingerprint(&txn_workload(
            interrupt_cfg(3),
            12,
            Arc::new(Mutex::new(Vec::new())),
            threads,
        ))
    };
    let a = run(false);
    assert_eq!(a, run(false), "same seed, same interrupts, same run");
    assert_eq!(a, run(true), "both links agree under interrupt components");
}

#[test]
fn interrupts_appear_in_the_trace_on_component_and_core_tracks() {
    let mut cfg = interrupt_cfg(2);
    cfg.trace = true;
    let report = txn_workload(cfg, 8, Arc::new(Mutex::new(Vec::new())), false);
    let mut comp_marks = 0u64;
    for e in &report.trace {
        if let coherence::TraceEvent::Comp {
            comp, name, what, ..
        } = e
        {
            assert_eq!(*comp, 0, "the index into MachineConfig::components");
            assert_eq!(*name, "interrupt");
            assert_eq!(*what, "interrupt");
            comp_marks += 1;
        }
    }
    assert_eq!(comp_marks, report.stats.interrupts_fired);
    // The victim side shows up as ordinary tx-abort marks carrying the
    // INTERRUPT status word on the core tracks.
    let int_aborts = report
        .trace
        .iter()
        .filter(|e| {
            matches!(e, coherence::TraceEvent::Tx { what, detail, .. }
                if *what == "abort" && txn::is_interrupt(*detail as u32))
        })
        .count() as u64;
    assert_eq!(int_aborts, report.stats.tx_aborts_interrupt);
}

/// One paced core: `wait_tick()` × `n` against a gate with the given
/// period/start/count, returning the report.
fn paced_run(gate: ComponentSpec, pre_delay: u64, waits: u64) -> RunReport {
    let mut cfg = MachineConfig::single_socket(1);
    cfg.delay_jitter_pct = 0;
    cfg.components.push(gate);
    let programs: Vec<Program> = vec![Box::new(move |ctx: &mut SimCtx| {
        if pre_delay > 0 {
            ctx.delay(pre_delay);
        }
        for _ in 0..waits {
            SimCtx::wait_tick(ctx);
        }
    }) as Program];
    Machine::new(cfg).run(Box::new(|_ctx| {}), programs)
}

#[test]
fn tick_gate_paces_a_waiting_core() {
    let report = paced_run(
        ComponentSpec::TickGate {
            core: 0,
            period: 1000,
            start: 1000,
            count: 10,
        },
        0,
        10,
    );
    // The tenth release cannot arrive before the tenth firing at t=10000.
    assert!(
        report.core_end[0] >= 10_000,
        "paced core finished at {} — before the gate's last firing",
        report.core_end[0]
    );
    assert_eq!(report.stats.op("waittick"), 10);
    assert_eq!(report.stats.comp_ticks, 10);
}

#[test]
fn early_gate_firings_are_banked_not_lost() {
    // The gate finishes all 10 firings by t=1000, while the consumer is
    // still in its initial delay; the banked ticks satisfy its later
    // wait_tick() calls immediately.
    let report = paced_run(
        ComponentSpec::TickGate {
            core: 0,
            period: 100,
            start: 100,
            count: 10,
        },
        5_000,
        10,
    );
    assert_eq!(report.stats.op("waittick"), 10);
    assert!(
        report.core_end[0] < 7_000,
        "banked ticks should resolve instantly, got end {}",
        report.core_end[0]
    );
}

#[test]
fn unlimited_gates_do_not_stall_run_end() {
    // count = 0 gates keep requesting ticks forever; the run still ends
    // when the last thread retires.
    let report = paced_run(
        ComponentSpec::TickGate {
            core: 0,
            period: 500,
            start: 500,
            count: 0,
        },
        0,
        4,
    );
    assert_eq!(report.stats.op("waittick"), 4);
    assert!(report.core_end[0] >= 2_000);
}

/// A gate on a core that never calls `wait_tick()` only banks ticks:
/// its events touch no line and no RNG, so the run cannot move.
#[test]
fn unwaited_tick_gate_leaves_a_run_byte_identical() {
    let run = |with_gate: bool| {
        let mut cfg = MachineConfig::single_socket(3);
        if with_gate {
            cfg.components.push(ComponentSpec::TickGate {
                core: 1,
                period: 37,
                start: 37,
                count: 0,
            });
        }
        let shared = Arc::new(AtomicU64::new(0));
        let programs: Vec<Program> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                Box::new(move |ctx: &mut SimCtx| {
                    let a = shared.load(SeqCst);
                    for _ in 0..40 {
                        ctx.faa(a, 1);
                        ctx.delay(30);
                    }
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
        )
    };
    let base = run(false);
    let beat = run(true);
    assert!(beat.stats.comp_ticks > 0, "the gate never ticked");
    assert_eq!(base.end_time, beat.end_time);
    assert_eq!(base.core_end, beat.core_end);
    let obs = |r: &RunReport| {
        let msgs: Vec<(&str, u64)> = r.stats.msgs().collect();
        let ops: Vec<(&str, u64)> = r.stats.ops().collect();
        format!(
            "{msgs:?} {ops:?} commits={} aborts={} stalls={}",
            r.stats.tx_commits,
            r.stats.tx_aborts(),
            r.stats.stalls
        )
    };
    assert_eq!(obs(&base), obs(&beat));
}

#[test]
#[should_panic(expected = "TickWait")]
fn wait_tick_without_a_gate_fails_the_deadlock_assert_with_a_hint() {
    // No components configured: the lone thread's wait_tick() can never
    // be released, and the machine names the stuck core instead of
    // hanging or dying opaquely.
    let mut cfg = MachineConfig::single_socket(1);
    cfg.delay_jitter_pct = 0;
    let programs: Vec<Program> = vec![Box::new(|ctx: &mut SimCtx| {
        SimCtx::wait_tick(ctx);
    }) as Program];
    Machine::new(cfg).run(Box::new(|_ctx| {}), programs);
}
