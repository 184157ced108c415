//! The backend-generic linearizability suite: every queue in the tree,
//! driven through one [`harness::record_history`] loop on **both**
//! execution backends — the coherence simulator (simulated-clock
//! timestamps, protocol invariants checked) and native atomics (real OS
//! threads, wall-clock-derived timestamps). This is the machine-checkable
//! version of the paper's §5.3.2 argument, and it replaces the three
//! per-backend harnesses (`linearizability_sim.rs`,
//! `linearizability_native.rs`, `sim_queues.rs`) that each duplicated the
//! drive/record/check boilerplate.
//!
//! Every run drains the queue after an end-of-ops barrier, so besides
//! linearizability the suite asserts exact element conservation: the
//! dequeued multiset equals the enqueued multiset.

use coherence::MachineConfig;
use harness::{
    dequeue_multiset, enqueue_multiset, mixed_ops, record_history, DriveOutcome, DriveSpec,
    NativeBackend, QueueKind, QueueParams, SimBackend,
};
use linearize::check_queue_linearizable;
use sbq::txcas::TxCasParams;

const THREADS: usize = 3;

fn params() -> QueueParams {
    QueueParams {
        max_threads: THREADS,
        enqueuers: THREADS,
        basket_capacity: 44,
        txcas: TxCasParams {
            // Shorter delay keeps the simulated runs quick; semantics
            // unaffected.
            intra_delay: 120,
            ..Default::default()
        },
    }
}

fn spec() -> DriveSpec {
    DriveSpec::new(params(), mixed_ops(THREADS, 15, 2), true)
}

/// Protocol invariants on: queue traffic doubles as a MESI/HTM
/// regression workload.
fn sim_backend() -> SimBackend {
    let mut cfg = MachineConfig::single_socket(THREADS);
    cfg.check_invariants = true;
    SimBackend::new(cfg)
}

fn assert_clean(name: &str, backend: &str, out: &DriveOutcome) {
    assert!(
        out.history
            .iter()
            .any(|e| matches!(e.op, linearize::Op::Enq(_))),
        "{name} on {backend}: history must contain operations"
    );
    if let Err(v) = check_queue_linearizable(&out.history) {
        panic!("{name} on {backend} not linearizable: {v}");
    }
    assert_eq!(
        dequeue_multiset(&out.history),
        enqueue_multiset(&out.history),
        "{name} on {backend}: drained queue must return exactly what went in"
    );
}

#[test]
fn every_queue_on_the_simulator_is_linearizable_and_conserving() {
    for kind in QueueKind::ALL {
        let out = record_history(&mut sim_backend(), kind, spec());
        assert_clean(kind.name(), "sim", &out);
    }
}

#[test]
fn every_queue_on_native_atomics_is_linearizable_and_conserving() {
    for kind in QueueKind::ALL {
        let out = record_history(&mut NativeBackend, kind, spec());
        assert_clean(kind.name(), "native", &out);
    }
}

#[test]
fn sbq_htm_stays_linearizable_under_spurious_aborts() {
    // Spurious aborts exercise TxCAS's retry and fallback paths on the
    // simulated HTM; the queue must stay linearizable and conserving.
    let mut cfg = MachineConfig::single_socket(THREADS);
    cfg.check_invariants = false;
    cfg.spurious_abort_ppm = 300_000;
    let out = record_history(&mut SimBackend::new(cfg), QueueKind::SbqHtm, spec());
    assert_clean("SBQ-HTM", "sim+spurious", &out);
    // With a 30% abort rate some transactions must actually have aborted,
    // or the knob did nothing.
    assert!(out.report.tx_aborts() > 0, "no aborts were injected");
}
