//! Per-line engine state costs what the model needs: a line's value is
//! stored once, and a cache keeps one state byte per line. This test sits
//! alone in its own file, so its process's peak resident set holds no
//! other test's machines.
#![cfg(target_os = "linux")]

use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};

/// The process's peak resident set size in KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM value in kB")
}

#[test]
fn every_core_spanning_every_line_stays_small() {
    const PER_CORE: usize = 256;
    let mut cfg = MachineConfig::dual_socket(44);
    cfg.check_invariants = false;
    let cores = cfg.cores;
    // Each core writes its own fresh words, so the run touches about
    // 88 × 257 ≈ 22.6 K lines. The write after the barrier lands on a
    // line interned after nearly all the others, so every core's
    // per-line state spans the whole arena.
    let programs: Vec<Program> = (0..cores)
        .map(|_| {
            Box::new(|ctx: &mut SimCtx| {
                let words = ctx.alloc(PER_CORE);
                for k in 0..PER_CORE as u64 {
                    ctx.write(words + k, k + 1);
                }
                ctx.barrier();
                let last = ctx.alloc(1);
                ctx.write(last, 1);
            }) as Program
        })
        .collect();
    let before = vm_hwm_kib();
    Machine::new(cfg).run(Box::new(|_| {}), programs);
    let grown_kib = vm_hwm_kib().saturating_sub(before);
    // 89 caches × 22.6 K lines at 1 B each is 2 MiB, and the fiber stacks
    // (89 × 64 KiB) 5.6 MiB; 17 B per cache per line would be 33 MiB.
    assert!(
        grown_kib < 16 * 1024,
        "a {cores}-core machine over ~22.6 K lines grew VmHWM by {grown_kib} KiB"
    );
}
