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

use absmem::ThreadCtx;
use coherence::MachineConfig;
use harness::{
    dequeue_multiset, enqueue_multiset, mixed_ops, record_history, Backend, DriveOutcome,
    DriveSpec, NativeBackend, QueueAdapter, QueueKind, QueueParams, SimBackend,
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
        delay_cycles: 120,
        reclaim: true,
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

/// The hazard-pointer MS queue is not a [`QueueKind`] (it exists as a
/// reclamation comparison, not a paper series), so it exercises the
/// harness's extension point instead: a custom [`QueueAdapter`] defined
/// here, runnable on both backends unchanged. The two published addresses
/// (queue + HP domain) are packed into a two-word descriptor block.
struct MsHpQ {
    q: baselines::MsQueueHp,
    st: baselines::MsHpThread,
}

impl<C: ThreadCtx> QueueAdapter<C> for MsHpQ {
    const NAME: &'static str = "MS-Queue-HP";

    fn create(ctx: &mut C, p: &QueueParams) -> u64 {
        let q = baselines::MsQueueHp::new(ctx, p.max_threads);
        let (qb, db) = q.parts();
        let pack = ctx.alloc(2);
        ctx.write(pack, qb);
        ctx.write(pack + 1, db);
        pack
    }

    fn attach(pack: u64, ctx: &mut C, p: &QueueParams) -> Self {
        let qb = ctx.read(pack);
        let db = ctx.read(pack + 1);
        let q = baselines::MsQueueHp::from_parts(qb, db, p.max_threads);
        let st = q.thread_state(p.max_threads);
        MsHpQ { q, st }
    }

    fn enqueue(&mut self, ctx: &mut C, v: u64) {
        self.q.enqueue(ctx, v)
    }

    fn dequeue(&mut self, ctx: &mut C) -> Option<u64> {
        self.q.dequeue(ctx, &mut self.st)
    }
}

fn run_ms_hp<B: Backend>(backend: &mut B, label: &str) {
    // record_history dispatches on QueueKind; a custom adapter drives the
    // same loop through the visitor-free generic path instead.
    let out = harness::record_history_as::<B, MsHpQ>(backend, spec());
    assert_clean("MS-Queue-HP", label, &out);
}

#[test]
fn ms_queue_hp_adapter_runs_on_both_backends() {
    run_ms_hp(&mut sim_backend(), "sim");
    run_ms_hp(&mut NativeBackend, "native");
}
