//! The fuzz runner: executes one [`FuzzRun`] through the backend-generic
//! [`harness::record_history`] driver and checks the merged history with
//! the exact linearizability checker, [`check_queue_linearizable`].
//!
//! Reproducibility contract (simulator backend): [`run_sim`] consumes
//! *only* the run. Thread op streams come from its seed, machine noise
//! from its machine's seed, and the merged history is canonically
//! sorted — so two equal runs produce identical outcomes down to the
//! fingerprint, on either link. Campaigns, the shrinker and artifact
//! replay all go through it.
//!
//! The native backend runs the *same plan* on real OS threads and real
//! atomics. Native interleavings are not reproducible, so native
//! fingerprints vary run to run; what is invariant — and what
//! [`crosscheck_plan`] verifies — is linearizability of every recorded
//! history plus, for drained runs, the dequeued-value multiset, which is
//! fully determined by the plan on any correct queue.

use crate::plan::{FuzzPlan, FuzzRun};
use coherence::{ComponentSpec, RunReport};
use harness::{
    dequeue_multiset, history_digest, record_history, DriveSpec, NativeBackend, QueueParams,
    SimBackend,
};
use linearize::{check_queue_linearizable, Event, Violation};
use obs::ObsSink;
use std::sync::Arc;

/// Result of one fuzz run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The complete recorded history, canonically sorted.
    pub history: Vec<Event>,
    /// Checker verdict; `None` means linearizable.
    pub violation: Option<Violation>,
    /// Compact digest of the observable run result (times, counters,
    /// history) for determinism comparisons. Stable across runs on the
    /// simulator; schedule-dependent on native.
    pub fingerprint: String,
    /// End time in cycles (simulated or nominal wall-clock).
    pub end_time: u64,
}

fn spec(run: &FuzzRun, drain: bool) -> DriveSpec {
    let mut spec = DriveSpec::new(
        QueueParams::for_checking(run.threads),
        (0..run.threads).map(|t| run.thread_ops(t)).collect(),
        drain,
    );
    // A gated core is timer-paced: one op per `TickGate` release. On
    // native — no tick source — `wait_tick` returns immediately.
    for c in &run.machine.components {
        if let ComponentSpec::TickGate { core, .. } = *c {
            spec.pace.resize(spec.pace.len().max(core + 1), 0);
            spec.pace[core] = 1;
        }
    }
    spec
}

fn sim_fingerprint(report: &RunReport, history: &[Event]) -> String {
    format!(
        "end={} core_end={:?} commits={} conflicts={} explicit={} spurious={} capacity={} \
         interrupt={} fired={} tripped={} stalls={} hist={}#{:016x}",
        report.end_time,
        report.core_end,
        report.stats.tx_commits,
        report.stats.tx_aborts_conflict,
        report.stats.tx_aborts_explicit,
        report.stats.tx_aborts_spurious,
        report.stats.tx_aborts_capacity,
        report.stats.tx_aborts_interrupt,
        report.stats.interrupts_fired,
        report.stats.tripped_writers,
        report.stats.stalls,
        history.len(),
        history_digest(history),
    )
}

/// Runs one plan on the simulator with the historical (no-drain) shape:
/// [`run_sim`] of [`FuzzPlan::run`], the path campaigns and the shrinker
/// take.
pub fn run_plan(plan: &FuzzPlan) -> RunOutcome {
    run_sim(&plan.run(), false)
}

/// Runs `run` on the simulator, optionally draining the queue after an
/// end-of-ops barrier (drained histories conserve elements exactly).
pub fn run_sim(run: &FuzzRun, drain: bool) -> RunOutcome {
    let mut backend = SimBackend::new(run.machine.clone());
    let out = record_history(&mut backend, run.queue, spec(run, drain));
    let report = out.report.sim.expect("sim backend always carries a report");
    let violation = check_queue_linearizable(&out.history).err();
    let fingerprint = sim_fingerprint(&report, &out.history);
    RunOutcome {
        history: out.history,
        violation,
        fingerprint,
        end_time: report.end_time,
    }
}

/// Re-runs one plan on the simulator with observability attached (op
/// spans per core plus the machine's coherence/HTM trace) and returns
/// the Chrome trace-event JSON document — the campaign writes this next
/// to each `.repro` so a violation can be *looked at* on a timeline,
/// not just replayed. Uses the same no-drain shape as [`run_plan`], so
/// the traced schedule is exactly the one the violation was found on
/// (recording cannot perturb simulated timing).
pub fn trace_plan(plan: &FuzzPlan) -> String {
    let mut run = plan.run();
    run.machine.trace = true;
    let mut backend = SimBackend::new(run.machine.clone());
    let sink = Arc::new(ObsSink::default());
    let mut s = spec(&run, false);
    s.obs = Some(Arc::clone(&sink));
    let out = record_history(&mut backend, plan.queue, s);
    let report = out.report.sim.expect("sim backend always carries a report");
    let label = format!(
        "fuzz {} seed {} ({} threads)",
        plan.queue.name(),
        plan.seed,
        plan.threads
    );
    obs::export(&sink.take_logs(), Some(&report), "sim", &label)
}

/// Runs `run` on native atomics (real OS threads). The machine's fault
/// knobs (spurious aborts, capacity, jitter, scheduler perturbation)
/// have no native equivalent and are ignored; the op streams, queue
/// kind, and thread count are honored exactly.
pub fn run_native(run: &FuzzRun, drain: bool) -> RunOutcome {
    let mut backend = NativeBackend;
    let out = record_history(&mut backend, run.queue, spec(run, drain));
    let violation = check_queue_linearizable(&out.history).err();
    let fingerprint = format!(
        "backend=native end={} hist={}#{:016x}",
        out.report.end_time,
        out.history.len(),
        history_digest(&out.history),
    );
    RunOutcome {
        violation,
        fingerprint,
        end_time: out.report.end_time,
        history: out.history,
    }
}

/// One plan run on both backends with draining, plus the cross-backend
/// comparison of the drained dequeue multisets.
#[derive(Debug)]
pub struct CrosscheckOutcome {
    pub sim: RunOutcome,
    pub native: RunOutcome,
    /// True iff both backends drained the exact same multiset of values —
    /// a schedule-independent equality on any correct queue, since the
    /// drained multiset equals the plan-determined enqueue multiset.
    pub multisets_agree: bool,
}

/// Runs `plan` on the simulator *and* on native atomics (both drained)
/// and compares the dequeued-value multisets.
pub fn crosscheck_plan(plan: &FuzzPlan) -> CrosscheckOutcome {
    let run = plan.run();
    let sim = run_sim(&run, true);
    let native = run_native(&run, true);
    let multisets_agree = dequeue_multiset(&sim.history) == dequeue_multiset(&native.history);
    CrosscheckOutcome {
        sim,
        native,
        multisets_agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::QueueKind;

    #[test]
    fn identical_plans_produce_identical_outcomes() {
        let plan = FuzzPlan::derive(3, None);
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn clean_small_campaign_over_every_queue() {
        for seed in 0..7 {
            let plan = FuzzPlan::derive(seed, None);
            // Under `planted-bug` the MS queue is *supposed* to fail;
            // tests/planted_bug.rs owns that expectation.
            if cfg!(feature = "planted-bug") && plan.queue == QueueKind::MsQueue {
                continue;
            }
            let out = run_plan(&plan);
            assert_eq!(
                out.violation,
                None,
                "seed {seed} ({}) reported a violation",
                plan.queue.name()
            );
            assert!(!out.history.is_empty());
        }
    }

    #[test]
    fn crosscheck_agrees_on_a_clean_plan() {
        let plan = FuzzPlan::derive(1, None);
        let out = crosscheck_plan(&plan);
        assert_eq!(out.sim.violation, None);
        assert_eq!(out.native.violation, None);
        assert!(out.multisets_agree);
    }

    /// Forced-preemption campaign: every queue runs under an aggressive
    /// interrupt source, the linearizability oracle must hold across the
    /// INTERRUPT-aborted-and-retried operations, and at least one seed
    /// per queue must actually observe interrupt aborts (otherwise the
    /// campaign silently stopped exercising the new fault).
    #[test]
    fn preemption_campaign_is_clean_and_observes_interrupt_aborts() {
        for (i, queue) in crate::plan::FUZZ_QUEUES.iter().enumerate() {
            if cfg!(feature = "planted-bug") && *queue == QueueKind::MsQueue {
                continue;
            }
            let mut interrupted = 0u64;
            for seed in 0..3u64 {
                let mut plan = FuzzPlan::derive(i as u64 * 31 + seed, Some(*queue));
                plan.preempt_period = 1_200;
                plan.preempt_cost = 200;
                plan.ops_per_thread = plan.ops_per_thread.max(12);
                let out = run_sim(&plan.run(), true);
                assert_eq!(
                    out.violation,
                    None,
                    "{} seed {seed} violated under preemption",
                    queue.name()
                );
                let report = run_report(&plan);
                interrupted += report.stats.tx_aborts_interrupt;
                assert!(report.stats.interrupts_fired > 0);
            }
            // Only the HTM-backed queues run transactions on the
            // simulator; everywhere else interrupts fire into plain code
            // and correctly abort nothing.
            let uses_htm = matches!(queue, QueueKind::SbqHtm | QueueKind::SbqStriped);
            assert_eq!(
                interrupted > 0,
                uses_htm,
                "{}: interrupt-abort observation disagrees with its HTM use",
                queue.name()
            );
        }
    }

    /// Timer pacing holds the oracle and actually gates thread 0.
    #[test]
    fn timer_paced_plans_are_clean_and_paced() {
        let mut plan = FuzzPlan::derive(2, Some(QueueKind::SbqHtm));
        plan.timer_period = 3_000;
        let out = run_sim(&plan.run(), true);
        assert_eq!(out.violation, None);
        let report = run_report(&plan);
        assert_eq!(report.stats.op("waittick"), plan.ops_per_thread);
        assert!(out.end_time >= plan.ops_per_thread * plan.timer_period);
        // Determinism with components attached.
        assert_eq!(out.fingerprint, run_sim(&plan.run(), true).fingerprint);
    }

    /// The sim report for one drained plan run (helper for component
    /// assertions that need raw counters, not the fingerprint).
    fn run_report(plan: &FuzzPlan) -> RunReport {
        let run = plan.run();
        let mut backend = SimBackend::new(run.machine.clone());
        let out = record_history(&mut backend, run.queue, spec(&run, true));
        out.report.sim.expect("sim backend always carries a report")
    }
}
