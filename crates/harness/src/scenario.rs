//! Component-driven end-to-end scenarios: canned queue workloads that
//! exercise the simulator's component spine (DESIGN.md §14) through the
//! ordinary history-recording driver. Three actor families:
//!
//! * **Preempt** — worker threads run a mixed enqueue/dequeue stream
//!   while an [`ComponentSpec::Interrupt`] source periodically preempts
//!   cores round-robin, aborting any in-flight transaction with
//!   [`absmem::txn::INTERRUPT`]. Measures throughput and abort
//!   composition under rising preemption (EXPERIMENTS.md E14).
//! * **Timer** — producers free-run while one consumer dequeues on a
//!   fixed period: it `wait_tick()`s before every dequeue and a
//!   [`ComponentSpec::TickGate`] releases it each `period` cycles.
//! * **Dma** — a DMA-style bulk enqueuer pushes `batch`-element bursts,
//!   one burst per gate firing, on a divided clock (`period × divider`),
//!   while worker threads consume.
//!
//! Every scenario runs on the simulator backend, records a full
//! linearizability-checked history, and folds the observable result into
//! a deterministic key=value summary: same spec, same bytes, on either
//! scheduler — which is exactly what the `component-smoke` CI job diffs.

use crate::backend::SimBackend;
use crate::history::{
    dequeue_multiset, enqueue_multiset, history_digest, mixed_ops, record_history, DriveSpec,
};
use crate::queues::{QueueKind, QueueParams};
use coherence::{ComponentSpec, MachineConfig, RunReport};
use linearize::{check_queue_linearizable, Op, Violation};
use obs::ObsSink;
use std::sync::Arc;

/// The three component-actor families a scenario can stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorFamily {
    /// Periodic interrupt source preempting worker cores.
    Preempt,
    /// Timer-driven consumer dequeuing on a fixed period.
    Timer,
    /// DMA-style bulk enqueuer bursting on a divided clock.
    Dma,
}

impl ActorFamily {
    pub const ALL: [ActorFamily; 3] = [ActorFamily::Preempt, ActorFamily::Timer, ActorFamily::Dma];

    pub fn name(self) -> &'static str {
        match self {
            ActorFamily::Preempt => "preempt",
            ActorFamily::Timer => "timer",
            ActorFamily::Dma => "dma",
        }
    }

    pub fn parse(s: &str) -> Option<ActorFamily> {
        match s.to_lowercase().as_str() {
            "preempt" | "interrupt" => Some(ActorFamily::Preempt),
            "timer" => Some(ActorFamily::Timer),
            "dma" => Some(ActorFamily::Dma),
            _ => None,
        }
    }
}

/// Full description of one scenario run. All knobs are integers so a
/// spec round-trips exactly through `key=value` command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    pub family: ActorFamily,
    pub queue: QueueKind,
    /// Worker threads (producers for Timer, consumers for Dma, the whole
    /// population for Preempt). The Timer/Dma actor thread is extra.
    pub workers: usize,
    /// Ops per worker: mixed steps (Preempt), enqueues (Timer), or
    /// dequeues (Dma).
    pub ops: u64,
    /// Interrupt or tick period, cycles.
    pub period: u64,
    /// Interrupt handler cost, cycles (Preempt only).
    pub cost: u64,
    /// Burst size of the bulk enqueuer (Dma only).
    pub batch: u64,
    /// Clock divider of the bulk enqueuer's gate (Dma only): the gate
    /// fires every `period × divider` cycles.
    pub divider: u64,
    /// Machine RNG seed (jitter, spurious aborts).
    pub seed: u64,
    /// Also produce a Chrome trace-event JSON document.
    pub trace: bool,
}

impl ScenarioSpec {
    /// A small, CI-sized spec of the given family.
    pub fn smoke(family: ActorFamily) -> ScenarioSpec {
        ScenarioSpec {
            family,
            queue: QueueKind::SbqHtm,
            workers: 3,
            ops: 24,
            period: 1_500,
            cost: 150,
            batch: 4,
            divider: 2,
            seed: 1,
            trace: false,
        }
    }

    /// Checks the counts a run needs to be nonzero, returning a
    /// diagnostic for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("scenario needs at least one worker".into());
        }
        if self.ops == 0 {
            return Err("scenario needs at least one op per worker".into());
        }
        if self.period == 0 {
            return Err("component periods must be nonzero".into());
        }
        if self.family == ActorFamily::Dma && self.batch == 0 {
            return Err("dma burst size must be nonzero".into());
        }
        Ok(())
    }
}

/// Result of one scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Deterministic key=value summary (one line per key), identical
    /// byte-for-byte across repeat runs of the same spec.
    pub summary: String,
    /// The simulator's full report.
    pub report: RunReport,
    /// Linearizability verdict over the recorded history (including
    /// INTERRUPT-aborted-and-retried operations); `None` = linearizable.
    pub violation: Option<Violation>,
    /// Chrome trace-event JSON, when `spec.trace` was set.
    pub chrome_json: Option<String>,
}

/// The machine, op streams, pacing, and components a spec stages. The
/// actor thread (Timer consumer / Dma enqueuer) always runs last, as
/// thread id `workers`.
fn stage(spec: &ScenarioSpec) -> (MachineConfig, Vec<Vec<bool>>, Vec<u64>) {
    if let Err(e) = spec.validate() {
        panic!("invalid scenario spec: {e}");
    }
    let (threads, ops, pace, comp) = match spec.family {
        ActorFamily::Preempt => (
            spec.workers,
            mixed_ops(spec.workers, spec.ops, 3),
            Vec::new(),
            ComponentSpec::Interrupt {
                period: spec.period,
                start: (spec.period / 2).max(1),
                cost: spec.cost,
                victim: None,
            },
        ),
        ActorFamily::Timer => {
            // Producers free-run; the consumer dequeues once per gate
            // release. Gate count = exactly the consumer's wait count,
            // so the run can neither starve nor leave the gate hot.
            let total = spec.workers as u64 * spec.ops;
            let mut ops: Vec<Vec<bool>> = (0..spec.workers)
                .map(|_| vec![true; spec.ops as usize])
                .collect();
            ops.push(vec![false; total as usize]);
            let mut pace = vec![0u64; spec.workers];
            pace.push(1);
            (
                spec.workers + 1,
                ops,
                pace,
                ComponentSpec::TickGate {
                    core: spec.workers,
                    period: spec.period,
                    start: spec.period,
                    count: total,
                },
            )
        }
        ActorFamily::Dma => {
            // The bulk enqueuer emits one `batch`-element burst per gate
            // firing on a divided clock; workers consume.
            let total = spec.workers as u64 * spec.ops;
            let bursts = total.div_ceil(spec.batch);
            let gate_period = spec.period * spec.divider.max(1);
            let mut ops: Vec<Vec<bool>> = (0..spec.workers)
                .map(|_| vec![false; spec.ops as usize])
                .collect();
            ops.push(vec![true; total as usize]);
            let mut pace = vec![0u64; spec.workers];
            pace.push(spec.batch);
            (
                spec.workers + 1,
                ops,
                pace,
                ComponentSpec::TickGate {
                    core: spec.workers,
                    period: gate_period,
                    start: gate_period,
                    count: bursts,
                },
            )
        }
    };
    let mut cfg = MachineConfig::single_socket(threads);
    cfg.seed = spec.seed;
    cfg.trace = spec.trace;
    cfg.components.push(comp);
    (cfg, ops, pace)
}

/// Runs one scenario on the simulator: stage the machine and components,
/// drive the queue, check linearizability, and fold the observable
/// result into the deterministic summary.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    let (cfg, ops, pace) = stage(spec);
    let threads = ops.len();
    let mut backend = SimBackend::new(cfg);
    let mut drive = DriveSpec::new(QueueParams::for_checking(threads), ops, true);
    drive.pace = pace;
    let sink = spec.trace.then(|| Arc::new(ObsSink::default()));
    drive.obs = sink.clone();
    let out = record_history(&mut backend, spec.queue, drive);
    let report = out.report.sim.expect("sim backend always carries a report");
    let violation = check_queue_linearizable(&out.history).err();

    let enq = enqueue_multiset(&out.history).len();
    let deq = dequeue_multiset(&out.history).len();
    let nulls = out
        .history
        .iter()
        .filter(|e| matches!(e.op, Op::DeqNull))
        .count();
    let s = &report.stats;
    let summary =
        format!(
        "scenario={} queue={} workers={} ops={} period={} cost={} batch={} divider={} seed={}\n\
         end_time={}\nenqueued={enq}\ndequeued={deq}\ndeq_null={nulls}\n\
         tx_commits={}\ntx_aborts={}\ntx_aborts_conflict={}\ntx_aborts_interrupt={}\n\
         interrupts_fired={}\ncomp_ticks={}\nwaitticks={}\n\
         lin={}\nhistory={}#{:016x}\n",
        spec.family.name(),
        spec.queue.name(),
        spec.workers,
        spec.ops,
        spec.period,
        spec.cost,
        spec.batch,
        spec.divider,
        spec.seed,
        report.end_time,
        s.tx_commits,
        s.tx_aborts(),
        s.tx_aborts_conflict,
        s.tx_aborts_interrupt,
        s.interrupts_fired,
        s.comp_ticks,
        s.op("waittick"),
        if violation.is_none() { "ok" } else { "VIOLATION" },
        out.history.len(),
        history_digest(&out.history),
    );

    let chrome_json = sink.map(|sink| {
        let label = format!(
            "scenario {} {} ({} workers)",
            spec.family.name(),
            spec.queue.name(),
            spec.workers
        );
        obs::export(&sink.take_logs(), Some(&report), "sim", &label)
    });

    ScenarioOutcome {
        summary,
        report,
        violation,
        chrome_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preempt_scenario_fires_interrupts_and_stays_linearizable() {
        let spec = ScenarioSpec::smoke(ActorFamily::Preempt);
        let out = run_scenario(&spec);
        assert_eq!(out.violation, None, "summary:\n{}", out.summary);
        assert!(out.report.stats.interrupts_fired > 0);
        assert!(
            out.report.stats.tx_aborts_interrupt > 0,
            "no interrupt landed in a txn; lengthen the run:\n{}",
            out.summary
        );
    }

    #[test]
    fn timer_scenario_paces_the_consumer() {
        let spec = ScenarioSpec::smoke(ActorFamily::Timer);
        let out = run_scenario(&spec);
        assert_eq!(out.violation, None, "summary:\n{}", out.summary);
        let waits = spec.workers as u64 * spec.ops;
        assert_eq!(out.report.stats.op("waittick"), waits);
        assert!(
            out.report.end_time >= waits * spec.period,
            "consumer finished before its last tick: {}",
            out.summary
        );
    }

    #[test]
    fn dma_scenario_bursts_on_the_divided_clock() {
        let spec = ScenarioSpec::smoke(ActorFamily::Dma);
        let out = run_scenario(&spec);
        assert_eq!(out.violation, None, "summary:\n{}", out.summary);
        let total = spec.workers as u64 * spec.ops;
        let bursts = total.div_ceil(spec.batch);
        assert_eq!(out.report.stats.op("waittick"), bursts);
        assert_eq!(out.report.stats.comp_ticks, bursts);
        assert!(out.report.end_time >= bursts * spec.period * spec.divider);
    }

    #[test]
    fn scenario_summaries_are_byte_identical_across_runs() {
        for family in ActorFamily::ALL {
            let spec = ScenarioSpec::smoke(family);
            let a = run_scenario(&spec).summary;
            let b = run_scenario(&spec).summary;
            assert_eq!(
                a,
                b,
                "{} scenario summary moved between runs",
                family.name()
            );
        }
    }

    #[test]
    fn traced_scenarios_produce_validatable_chrome_json() {
        let mut spec = ScenarioSpec::smoke(ActorFamily::Preempt);
        spec.trace = true;
        spec.ops = 8;
        let out = run_scenario(&spec);
        let json = out.chrome_json.expect("trace was requested");
        obs::validate(&json).expect("scenario trace must satisfy the exporter contract");
        assert!(
            json.contains("interrupt"),
            "component track missing from the trace"
        );
    }

    #[test]
    fn family_names_roundtrip() {
        for f in ActorFamily::ALL {
            assert_eq!(ActorFamily::parse(f.name()), Some(f));
        }
        assert_eq!(ActorFamily::parse("warp-drive"), None);
    }
}
