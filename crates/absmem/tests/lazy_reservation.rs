//! A `NativeHeap` costs memory only for the words it touches: its 2^24-word
//! reservation is address space. This test sits alone in its own file, so
//! its process's resident set holds no other test's heaps.
#![cfg(target_os = "linux")]

use absmem::native::NativeHeap;
use absmem::ThreadCtx;
use std::sync::Arc;

/// The process's resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn untouched_reservation_costs_no_resident_memory() {
    const HEAPS: usize = 8;
    let before = vm_rss_kib();
    // Eight live heaps reserve 1 GiB; each touches a few words.
    let heaps: Vec<Arc<NativeHeap>> = (0..HEAPS)
        .map(|i| {
            let heap = Arc::new(NativeHeap::new());
            let mut ctx = heap.ctx(0);
            for k in 0..4 {
                let a = ctx.alloc(8);
                ctx.write(a, (i * 4 + k) as u64 + 1);
            }
            heap
        })
        .collect();
    let grown_kib = vm_rss_kib().saturating_sub(before);
    for (i, heap) in heaps.iter().enumerate() {
        assert!(heap.high_water() < 1_024, "heap {i} frontier");
    }
    assert!(
        grown_kib < 16 * 1024,
        "{HEAPS} heaps with a few words each grew VmRSS by {grown_kib} KiB"
    );
}
