//! Paper-scale NUMA regressions: the 176-core machine must fit its
//! fiber-stack budget, home-socket policies must route directory legs
//! where they claim to, the widened trace counters must hold counts a
//! 176-core run produces, and long delays that overflow the calendar
//! wheel must keep an 88-core run deterministic. (The wheel's own
//! migration-order tests are unit tests of `sim::event`.)

use absmem::ThreadCtx;
use coherence::{HomePolicy, Machine, MachineConfig, Program, RunReport, SimCtx, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Every core hammers a private 8-line stripe (writes then reads); the
/// bootstrap thread only allocates, so under `FirstTouch` each stripe
/// homes on its owner's socket. No barrier and no sharing: all traffic
/// is core↔directory, which makes the hop counters easy to reason
/// about.
fn striped_workload(mut cfg: MachineConfig) -> RunReport {
    cfg.delay_jitter_pct = 0;
    let cores = cfg.cores;
    let shared = Arc::new(AtomicU64::new(0));
    let programs: Vec<Program> = (0..cores)
        .map(|i| {
            let shared = Arc::clone(&shared);
            Box::new(move |ctx: &mut SimCtx| {
                let base = shared.load(SeqCst) + (i as u64) * 8;
                for k in 0..8 {
                    ctx.write(base + k, k);
                }
                for k in 0..8 {
                    let _ = ctx.read(base + k);
                }
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(cores * 8);
            s2.store(a, SeqCst);
        }),
        programs,
    )
}

// ---------------------------------------------------------------------
// Footprint: the tentpole's reason the 176-core machine exists at all.
// ---------------------------------------------------------------------

/// A quad-socket, 176-core machine must construct and run with a total
/// fiber-stack footprint at least 8× below the old 1 MiB-per-fiber
/// scheme (177 fibers including bootstrap = 177 MiB). With the 64 KiB
/// default the total is ~11 MiB.
#[cfg(target_arch = "x86_64")]
#[test]
fn machine_176_cores_fits_the_stack_budget() {
    let mut cfg = MachineConfig::multi_socket(4, 44);
    cfg.check_invariants = false;
    assert_eq!(cfg.cores, 176);
    assert_eq!(cfg.sockets(), 4);
    assert_eq!(cfg.home_policy, HomePolicy::Interleave);
    let report = striped_workload(cfg);
    assert_eq!(report.core_end.len(), 176);
    let old_budget = 177u64 * (1 << 20);
    assert!(
        report.stats.stack_bytes_total > 0,
        "fiber link reported no stack footprint"
    );
    assert!(
        report.stats.stack_bytes_total * 8 <= old_budget,
        "176-core stack footprint regressed: {} bytes is not 8x below the old {} bytes",
        report.stats.stack_bytes_total,
        old_budget
    );
}

// ---------------------------------------------------------------------
// Home-socket policies.
// ---------------------------------------------------------------------

/// A single-socket machine has nowhere to cross to: every hop is intra
/// regardless of traffic shape.
#[test]
fn single_socket_runs_count_no_cross_hops() {
    let report = striped_workload(MachineConfig::single_socket(4));
    assert!(report.stats.hops_intra > 0);
    assert_eq!(report.stats.hops_cross, 0);
    assert_eq!(report.stats.dir_hops_cross, 0);
}

/// Under the `Fixed` policy every directory leg lands on socket 0,
/// so socket-1 cores pay cross-socket hops for their own private lines.
/// `FirstTouch` homes each stripe where its owner runs, eliminating
/// every cross hop for this share-nothing workload.
#[test]
fn first_touch_localizes_private_stripes() {
    let fixed = striped_workload(MachineConfig::dual_socket(3));
    assert!(
        fixed.stats.dir_hops_cross > 0,
        "fixed-home run shows no cross-socket directory traffic to improve on"
    );
    let mut cfg = MachineConfig::dual_socket(3);
    cfg.home_policy = HomePolicy::FirstTouch;
    let ft = striped_workload(cfg);
    assert_eq!(
        ft.stats.hops_cross, 0,
        "first-touch left cross-socket traffic on a share-nothing workload"
    );
    assert!(ft.stats.hops_intra >= fixed.stats.hops_intra);
}

/// `Interleave` spreads homes by address hash: a dual-socket run sees
/// both intra- and cross-socket directory legs, and the cross count
/// sits strictly between first-touch (all local) and all-remote.
#[test]
fn interleave_spreads_directory_homes_across_sockets() {
    let mut cfg = MachineConfig::dual_socket(3);
    cfg.home_policy = HomePolicy::Interleave;
    let report = striped_workload(cfg);
    assert!(
        report.stats.hops_intra > 0,
        "no socket-local directory legs"
    );
    assert!(
        report.stats.hops_cross > 0,
        "hash interleave never crossed sockets"
    );
    assert!(report.stats.dir_hops_cross > 0);
    assert!(report.stats.dir_hops_cross <= report.stats.hops_cross);
}

/// Policies only move directory legs; they must not change simulated
/// results' determinism. Same config, same run, twice.
#[test]
fn policy_runs_are_deterministic() {
    for policy in [HomePolicy::Interleave, HomePolicy::FirstTouch] {
        let run = || {
            let mut cfg = MachineConfig::dual_socket(3);
            cfg.home_policy = policy;
            striped_workload(cfg)
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.end_time, b.end_time,
            "policy {policy:?} is nondeterministic"
        );
        assert_eq!(a.core_end, b.core_end);
        assert_eq!(
            (
                a.stats.hops_intra,
                a.stats.hops_cross,
                a.stats.dir_hops_cross
            ),
            (
                b.stats.hops_intra,
                b.stats.hops_cross,
                b.stats.dir_hops_cross
            )
        );
    }
}

// ---------------------------------------------------------------------
// Counter widths (stats.rs detail audit).
// ---------------------------------------------------------------------

/// The `Tx.detail` field carries abort status words and nesting depths;
/// at 176 cores cumulative status encodings overflow the old `u32`. The
/// widened field must hold and format values past the old width.
#[test]
fn tx_trace_detail_holds_values_past_u32() {
    let big: u64 = (u32::MAX as u64) + 0x1234;
    let ev = TraceEvent::Tx {
        time: 1,
        core: 0,
        what: "abort",
        detail: big,
    };
    let TraceEvent::Tx { detail, .. } = ev else {
        unreachable!()
    };
    assert!(
        detail > u32::MAX as u64,
        "detail field truncated to the old u32 width"
    );
    assert_eq!(format!("{detail:#x}"), "0x100001233");
}

// ---------------------------------------------------------------------
// Calendar wheel: overflow-heap → wheel migration at paper scale.
// ---------------------------------------------------------------------

/// The wheel's migration-order contract exercised end-to-end at paper
/// scale: 88 cores where half sleep far past the wheel horizon (long
/// `delay()`s land in the overflow heap) while the other half keep the
/// wheel dense with short-latency coherence traffic. Two runs must agree
/// exactly.
#[test]
fn long_delays_beyond_the_horizon_stay_deterministic_at_88_cores() {
    let run = || {
        let mut cfg = MachineConfig::dual_socket(44);
        cfg.delay_jitter_pct = 0;
        cfg.check_invariants = false;
        let cores = cfg.cores;
        let shared = Arc::new(AtomicU64::new(0));
        let programs: Vec<Program> = (0..cores)
            .map(|i| {
                let shared = Arc::clone(&shared);
                Box::new(move |ctx: &mut SimCtx| {
                    let base = shared.load(SeqCst);
                    if i % 2 == 0 {
                        // Far-heap traffic: sleeps several horizons out,
                        // interleaved with contended FAAs.
                        for k in 0..4 {
                            ctx.delay(700 + 13 * (i as u64) + k);
                            ctx.faa(base, 1);
                        }
                    } else {
                        // Wheel traffic: dense short-latency ops.
                        for k in 0..40 {
                            ctx.write(base + 1 + (i as u64 % 7), k);
                            let _ = ctx.read(base + 1 + (k % 7));
                        }
                    }
                }) as Program
            })
            .collect();
        let s2 = Arc::clone(&shared);
        Machine::new(cfg).run(
            Box::new(move |ctx| {
                let a = ctx.alloc(8);
                for k in 0..8 {
                    ctx.write(a + k, 0);
                }
                s2.store(a, SeqCst);
            }),
            programs,
        )
    };
    let (a, b) = (run(), run());
    assert!(a.end_time > 700, "long delays never reached the far heap");
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.core_end, b.core_end);
    assert_eq!(a.stats.op("delay"), b.stats.op("delay"));
}
