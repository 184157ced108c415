//! The [`Backend`] trait: one execution contract — run a setup program
//! alone, then `n` thread programs concurrently — implemented by both the
//! coherence simulator and the native-atomics substrate. Everything above
//! the queues (workloads, fuzzing, linearizability suites) is written
//! against this trait once instead of per backend.

use absmem::native::{NativeCtx, NativeHeap};
use absmem::ThreadCtx;
use coherence::{Machine, MachineConfig, RunReport, SimCtx};
use std::sync::{Arc, Barrier};

/// One thread's program on backend context `C`. For the simulator this is
/// exactly [`coherence::Program`].
pub type Job<C> = Box<dyn FnOnce(&mut C) + Send>;

/// What a backend reports after a run.
#[derive(Debug)]
pub struct BackendReport {
    /// End-of-run time in cycles: simulated cycles on the simulator,
    /// wall-clock cycles at the nominal 2.2 GHz on native.
    pub end_time: u64,
    /// The full simulator report (coherence traffic, HTM counters);
    /// `None` on the native backend, where no such instrumentation
    /// exists.
    pub sim: Option<RunReport>,
}

impl BackendReport {
    /// HTM commits, or 0 where the backend has no HTM.
    pub fn tx_commits(&self) -> u64 {
        self.sim.as_ref().map_or(0, |r| r.stats.tx_commits)
    }

    /// HTM aborts (all causes), or 0 where the backend has no HTM.
    pub fn tx_aborts(&self) -> u64 {
        self.sim.as_ref().map_or(0, |r| r.stats.tx_aborts())
    }

    /// Writers tripped by the §3.4 asymmetric-abort effect, or 0.
    pub fn tripped_writers(&self) -> u64 {
        self.sim.as_ref().map_or(0, |r| r.stats.tripped_writers)
    }
}

/// A substrate that can execute a phased multi-thread run: `setup` alone
/// first (commonly creating a queue and publishing its base address),
/// then all `programs` concurrently, program `i` running as thread id
/// `i`. Program results travel through whatever shared state the caller
/// captured in the closures; contexts support [`ThreadCtx::barrier`] for
/// phase separation inside the run.
pub trait Backend {
    type Ctx: ThreadCtx + 'static;

    /// Short name for reports ("sim" / "native").
    fn name(&self) -> &'static str;

    /// Executes one run.
    fn run(&mut self, setup: Job<Self::Ctx>, programs: Vec<Job<Self::Ctx>>) -> BackendReport;
}

/// The coherence-simulator backend: a thin wrapper over
/// [`Machine::run`], adding nothing to the program construction so
/// simulated timings — and with them the determinism goldens — are
/// bit-identical to driving the machine directly.
pub struct SimBackend {
    machine: Machine,
}

impl SimBackend {
    pub fn new(cfg: MachineConfig) -> Self {
        SimBackend {
            machine: Machine::new(cfg),
        }
    }
}

impl Backend for SimBackend {
    type Ctx = SimCtx;

    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&mut self, setup: Job<SimCtx>, programs: Vec<Job<SimCtx>>) -> BackendReport {
        let report = self.machine.run(setup, programs);
        BackendReport {
            end_time: report.end_time,
            sim: Some(report),
        }
    }
}

/// The native backend: real OS threads over real `AtomicU64`s. Each run
/// gets a fresh [`NativeHeap`], whose 2^24-word (128 MiB) reservation is
/// address space, paid for only as the run touches it; the setup job runs
/// alone on thread id 0 (with a unit barrier, so phased generic code works
/// unchanged), then every program runs on its own scoped OS thread sharing
/// one barrier group.
pub struct NativeBackend;

impl Backend for NativeBackend {
    type Ctx = NativeCtx;

    fn name(&self) -> &'static str {
        "native"
    }

    fn run(&mut self, setup: Job<NativeCtx>, programs: Vec<Job<NativeCtx>>) -> BackendReport {
        let heap = Arc::new(NativeHeap::new());
        {
            let mut ctx = heap.ctx(0).with_barrier(Arc::new(Barrier::new(1)));
            setup(&mut ctx);
        }
        let barrier = Arc::new(Barrier::new(programs.len().max(1)));
        std::thread::scope(|s| {
            for (tid, prog) in programs.into_iter().enumerate() {
                let mut ctx = heap.ctx(tid).with_barrier(Arc::clone(&barrier));
                s.spawn(move || prog(&mut ctx));
            }
        });
        BackendReport {
            end_time: heap.ctx(0).now(),
            sim: None,
        }
    }
}

/// Runtime backend selector (the `backend=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    #[default]
    Sim,
    Native,
}

impl BackendKind {
    /// Both backends, in sim-first order (the order dual-backend suites
    /// iterate in).
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Native];

    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }

    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_lowercase().as_str() {
            "sim" | "simulator" => Some(BackendKind::Sim),
            "native" => Some(BackendKind::Native),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("Native"), Some(BackendKind::Native));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn native_setup_publishes_to_programs() {
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        let base = Arc::new(AtomicU64::new(0));
        let mut be = NativeBackend;
        let b1 = Arc::clone(&base);
        let sum = Arc::new(AtomicU64::new(0));
        let programs: Vec<Job<NativeCtx>> = (0..2)
            .map(|_| {
                let base = Arc::clone(&base);
                let sum = Arc::clone(&sum);
                Box::new(move |ctx: &mut NativeCtx| {
                    let a = base.load(SeqCst);
                    ctx.barrier();
                    for _ in 0..100 {
                        ctx.faa(a, 1);
                    }
                    sum.fetch_add(ctx.read(a), SeqCst);
                }) as Job<NativeCtx>
            })
            .collect();
        let report = be.run(
            Box::new(move |ctx| {
                let a = ctx.alloc(1);
                ctx.write(a, 0);
                b1.store(a, SeqCst);
            }),
            programs,
        );
        assert!(report.sim.is_none());
        assert!(report.end_time > 0);
        // Both threads saw the shared counter reach at least their own
        // contribution; the final value is exactly 200 but each read races.
        assert!(sum.load(SeqCst) >= 200);
    }
}
