//! The directory's per-line state costs what the model needs: a line two
//! cores share holds a 16 B entry and one bitmask word of sharers, with
//! no heap allocation of its own, and the address → line table grows by
//! page with the words touched, not with the highest address. This test
//! sits alone in its own file, so its process's peak resident set holds
//! no other test's machines.
#![cfg(target_os = "linux")]

use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, Program, SimCtx};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

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
fn a_hundred_thousand_shared_lines_stay_small() {
    const CORES: usize = 8;
    const WORDS: u64 = 12_500;
    let mut cfg = MachineConfig::single_socket(CORES);
    cfg.check_invariants = false;
    let bases: Arc<Vec<AtomicU64>> = Arc::new((0..CORES).map(|_| AtomicU64::new(0)).collect());
    // Each core writes its own fresh words, then reads its neighbour's:
    // every one of the 100 K lines ends Shared by its writer and one
    // reader. `simalloc` carves each core's block from a batch of its
    // own, so the touched words spread over ~4.2 M words of address.
    let programs: Vec<Program> = (0..CORES)
        .map(|i| {
            let bases = Arc::clone(&bases);
            Box::new(move |ctx: &mut SimCtx| {
                let mine = ctx.alloc(WORDS as usize);
                bases[i].store(mine, SeqCst);
                for k in 0..WORDS {
                    ctx.write(mine + k, k + 1);
                }
                ctx.barrier();
                let theirs = bases[(i + 1) % CORES].load(SeqCst);
                for k in 0..WORDS {
                    assert_eq!(ctx.read(theirs + k), k + 1);
                }
            }) as Program
        })
        .collect();
    let before = vm_hwm_kib();
    let report = Machine::new(cfg).run(Box::new(|_| {}), programs);
    let grown_kib = vm_hwm_kib().saturating_sub(before);
    assert_eq!(report.stats.msg("Fwd-GetS"), CORES as u64 * WORDS);
    // About 4.3 MiB: per line 8 B of value, 9 B of cache state, a 16 B
    // directory entry and an 8 B sharer word, plus 4 KiB per touched
    // page of the line table and the fiber stacks. A hash-map index and
    // a heap sharer list per line come to about 11.4 MiB.
    assert!(
        grown_kib < 8 * 1024,
        "{CORES} cores sharing ~100 K lines grew VmHWM by {grown_kib} KiB"
    );
}
