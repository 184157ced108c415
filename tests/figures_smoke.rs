//! Smoke test for the figure harness: every driver must run end-to-end at
//! a tiny scale. Guards the bench crate against bit-rot — the real curves
//! are generated by `simctl fig <name|all>`.

use bench::workload::{paper_workload, run_workload, WorkloadKind};
use harness::QueueKind;

#[test]
fn every_queue_runs_every_workload_tiny() {
    for kind in [
        WorkloadKind::ProducerOnly,
        WorkloadKind::ConsumerOnly,
        WorkloadKind::Mixed,
    ] {
        for q in QueueKind::PAPER_SET {
            let threads = if kind == WorkloadKind::Mixed { 4 } else { 3 };
            let w = paper_workload(kind, threads, 6);
            let m = run_workload(q, &w);
            assert!(m.latency_ns > 0.0, "{q:?}/{kind:?}: no latency measured");
            assert!(
                m.throughput_mops > 0.0,
                "{q:?}/{kind:?}: no throughput measured"
            );
        }
    }
}

#[test]
fn ms_queue_kind_runs_too() {
    let w = paper_workload(WorkloadKind::ProducerOnly, 3, 6);
    let m = run_workload(QueueKind::MsQueue, &w);
    assert!(m.latency_ns > 0.0);
}

#[test]
fn queue_kind_parsing_roundtrips() {
    for q in QueueKind::PAPER_SET {
        assert_eq!(QueueKind::parse(q.name()), Some(q), "{}", q.name());
    }
    assert_eq!(QueueKind::parse("nonsense"), None);
}

#[test]
fn sbq_htm_produces_commits_and_profitable_aborts() {
    // The defining SBQ property, visible in the run stats: committed
    // appends are few (one per node) while conflict aborts are "profited
    // from" — enqueues still complete via baskets.
    let w = paper_workload(WorkloadKind::ProducerOnly, 4, 30);
    let m = run_workload(QueueKind::SbqHtm, &w);
    assert!(m.tx_commits > 0, "appends must commit");
    // 4 threads x 30 enqueues = 120 elements; far fewer commits than
    // elements means baskets absorbed the rest.
    assert!(
        m.tx_commits < 120,
        "baskets should absorb most enqueues (commits={})",
        m.tx_commits
    );
}
