//! The machine runner: executes thread *programs* (plain Rust closures)
//! against the protocol engine.
//!
//! Exactly one simulated thread runs at any wall-clock instant, so a run
//! is fully deterministic for a given configuration and program set. One
//! scheduler, the *pump*, owns that discipline: it starts the cores in
//! core-index order, admits each request a program makes into the engine
//! (serving allocator calls inline), steps the event loop, and hands
//! every resumption that falls out to its core. That admission order is
//! the one the determinism goldens pin.
//!
//! How the pump reaches a core's program is a separate concern, a
//! `Link` with two operations: spawn a core (run it to its first
//! request) and resume a core (hand it a response, block until its next
//! request). Two links exist, and both produce bit-identical
//! `RunReport`s:
//!
//! * **Fibers** (x86_64). Every core is a stackful coroutine
//!   ([`crate::fiber`]) on the OS thread that called [`Machine::run`]; a
//!   handoff is a ~20 ns stack switch instead of a ~1–2 µs futex round
//!   trip through the kernel, which is what makes the simulator's hot
//!   loop run at engine speed.
//! * **Threads** (every other target). Every core is an OS thread that
//!   blocks on its response channel whenever the pump is not serving it.
//!
//! A program panic is caught where the program runs and reaches the pump
//! as the core's retirement request; the pump re-raises the program's own
//! payload on the thread that called [`Machine::run`].
//!
//! Programs see a [`SimCtx`], which implements [`absmem::ThreadCtx`] and
//! [`absmem::txn::HtmOps`], the raw HTM operations (`tx_begin` /
//! `tx_end` / `tx_abort` and fallible transactional loads/stores) under
//! the RTM-style combinators of [`absmem::txn`].

use crate::config::MachineConfig;
use crate::sim::{OpKind, OpOutcome, Resume, Sim};
use crate::stats::RunReport;
use absmem::txn::{Abort, HtmOps, TxResult};
use simalloc::{ThreadCache, WordPool};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
use crate::fiber;
#[cfg(target_arch = "x86_64")]
use std::cell::Cell;

/// A thread program: a closure run to completion on a simulated core.
pub type Program = Box<dyn FnOnce(&mut SimCtx) + Send>;

/// A request from a program to the pump. A program's last request is
/// `Finished`, carrying its final simulated time or its panic payload.
enum Req {
    Op { at: u64, op: OpKind },
    Alloc { at: u64, words: usize },
    Free { at: u64, addr: u64, words: usize },
    Barrier { at: u64 },
    Finished(std::thread::Result<u64>),
}

#[derive(Debug, Clone, Copy)]
enum Resp {
    Val { v: u64, now: u64 },
    Aborted { status: u32, now: u64 },
}

fn resp_of(r: &Resume) -> Resp {
    match r.outcome {
        OpOutcome::Val(v) => Resp::Val { v, now: r.time },
        OpOutcome::Aborted(status) => Resp::Aborted {
            status,
            now: r.time,
        },
    }
}

/// Runs `prog` on a fresh context for `core` and returns the core's
/// retirement request. Catching the panic here keeps it from unwinding
/// off a fiber stack or killing a core's thread unseen.
fn run_program(prog: Program, core: usize, tid: usize, t0: u64, port: Port) -> Req {
    let mut ctx = SimCtx {
        core,
        tid,
        local_time: t0,
        port,
    };
    Req::Finished(catch_unwind(AssertUnwindSafe(|| {
        prog(&mut ctx);
        ctx.local_time
    })))
}

/// How the pump reaches the simulated cores' programs.
trait Link {
    /// Starts `prog` on `core` (logical thread `tid`, local clock `t0`)
    /// and blocks until its first request.
    fn spawn(&mut self, core: usize, tid: usize, t0: u64, prog: Program) -> Req;

    /// Hands `resp` to `core` and blocks until its next request.
    fn resume(&mut self, core: usize, resp: Resp) -> Req;
}

/// The scheduler: the engine plus the state of the admission order.
struct Pump {
    sim: Sim,
    alloc_caches: Vec<ThreadCache>,
    live: usize,
    barrier: Vec<(usize, u64)>,
    /// Resumptions not yet delivered, in delivery order. Barrier releases
    /// are queued here too, at the front.
    pending: VecDeque<Resume>,
    /// Each core's final simulated time, recorded at retirement.
    core_end: Vec<u64>,
}

impl Pump {
    /// Everyone arrived: queue a release for each waiter at the maximal
    /// local time, ahead of any not-yet-delivered resumptions.
    fn release_barrier(&mut self) {
        // A release with no waiters (a zero-thread or all-empty phase) is
        // a no-op — there is nobody to wake, and `.max()` on the empty set
        // would panic with an unhelpful iterator error.
        let Some(tmax) = self.barrier.iter().map(|&(_, t)| t).max() else {
            return;
        };
        for (i, (c, _)) in self.barrier.drain(..).enumerate() {
            self.pending.insert(
                i,
                Resume {
                    core: c,
                    time: tmax,
                    outcome: OpOutcome::Val(0),
                },
            );
        }
    }

    /// Admits `core`'s request into the engine. Allocator calls never
    /// touch coherent memory, so they are served inline — the core is
    /// resumed at once — until it submits a memory operation, blocks at a
    /// barrier, or retires.
    fn admit(&mut self, link: &mut impl Link, core: usize, mut req: Req) {
        loop {
            let (v, at) = match req {
                Req::Op { at, op } => {
                    self.sim.submit_op(core, at, op);
                    return;
                }
                Req::Barrier { at } => {
                    self.barrier.push((core, at));
                    if self.barrier.len() == self.live {
                        self.release_barrier();
                    }
                    return;
                }
                Req::Alloc { at, words } => (self.alloc_caches[core].alloc(words), at),
                Req::Free { at, addr, words } => {
                    self.alloc_caches[core].free(addr, words);
                    (0, at)
                }
                Req::Finished(Ok(end)) => {
                    self.core_end[core] = end;
                    self.live -= 1;
                    return;
                }
                // The other cores stay blocked in requests; dropping the
                // link as this unwinds releases them.
                Req::Finished(Err(payload)) => resume_unwind(payload),
            };
            let now = at + self.sim.cfg.alloc_cycles;
            req = link.resume(core, Resp::Val { v, now });
        }
    }

    /// Runs one phase: spawn `progs` on consecutive cores from
    /// `first_core`, admitting each core's first request in core-index
    /// order, then pump the event loop, resuming cores as their
    /// resumptions fall out, until every core has retired.
    fn run_phase(&mut self, link: &mut impl Link, first_core: usize, progs: Vec<Program>, t0: u64) {
        self.live = progs.len();
        for (tid, prog) in progs.into_iter().enumerate() {
            let core = first_core + tid;
            let req = link.spawn(core, tid, t0, prog);
            self.admit(link, core, req);
        }
        loop {
            if let Some(r) = self.pending.pop_front() {
                let req = link.resume(r.core, resp_of(&r));
                self.admit(link, r.core, req);
                continue;
            }
            if self.live == 0 {
                return;
            }
            let progressed = self.sim.step();
            assert!(
                progressed,
                "deadlock: live threads but no events;{}",
                self.sim.stuck_report()
            );
            self.pending.extend(self.sim.resumes.drain(..));
        }
    }
}

/// The portable link: every core is an OS thread scoped to the run. A
/// core blocks on its response channel whenever the pump is not serving
/// it, so exactly one side runs at a time. Dropping the link — also while
/// the pump unwinds — closes every channel, which unwinds each core still
/// blocked in a request so the scope can join it.
struct ThreadLink<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    /// Per core, the pump's ends of its two channels.
    cores: Vec<Option<(mpsc::Sender<Resp>, mpsc::Receiver<Req>)>>,
}

impl Link for ThreadLink<'_, '_> {
    fn spawn(&mut self, core: usize, tid: usize, t0: u64, prog: Program) -> Req {
        let (req_tx, req_rx) = mpsc::channel();
        let (resp_tx, resp_rx) = mpsc::channel();
        self.scope.spawn(move || {
            let port = Port::Thread(req_tx.clone(), resp_rx);
            // A send error means the pump is unwinding: nobody is left
            // to tell.
            let _ = req_tx.send(run_program(prog, core, tid, t0, port));
        });
        let req = req_rx.recv().expect("core thread exited without retiring");
        self.cores[core] = Some((resp_tx, req_rx));
        req
    }

    fn resume(&mut self, core: usize, resp: Resp) -> Req {
        let (tx, rx) = self.cores[core].as_ref().expect("core not spawned");
        tx.send(resp).expect("core thread gone");
        rx.recv().expect("core thread exited without retiring")
    }
}

/// Per-core exchange cell between a program fiber and the pump.
/// Everything lives on one OS thread, so plain `Cell`s suffice; the
/// saved-context fields are the two halves of a [`fiber::switch`] pair.
#[cfg(target_arch = "x86_64")]
struct Chan {
    /// Request published by the fiber before switching to the pump.
    req: Cell<Option<Req>>,
    /// Response published by the pump before switching into the fiber.
    resp: Cell<Resp>,
    /// The pump's suspended context while the fiber runs.
    sched_rsp: Cell<*mut u8>,
    /// The fiber's suspended context while the pump runs (initially the
    /// fiber's entry context).
    fiber_rsp: Cell<*mut u8>,
}

/// Fiber-side half of the exchange: publish `req`, switch to the pump,
/// wake up with the response.
#[cfg(target_arch = "x86_64")]
fn fiber_request(ch: *const Chan, req: Req) -> Resp {
    // SAFETY: the Chan is owned by the link and outlives the fiber; only
    // one side runs at a time (same OS thread).
    let ch = unsafe { &*ch };
    ch.req.set(Some(req));
    // SAFETY: `sched_rsp` holds the pump's context, suspended exactly
    // when it last switched into this fiber.
    unsafe { fiber::switch(&ch.fiber_rsp, ch.sched_rsp.get()) };
    ch.resp.get()
}

/// The fiber link: every program stack lives on the OS thread that runs
/// the pump.
#[cfg(target_arch = "x86_64")]
struct FiberLink {
    // Boxed so each Chan's address is stable regardless of Vec moves:
    // fibers hold raw `*const Chan` pointers across suspensions.
    #[allow(clippy::vec_box)]
    chans: Vec<Box<Chan>>,
    fibers: Vec<Option<fiber::Fiber>>,
}

#[cfg(target_arch = "x86_64")]
impl FiberLink {
    /// Switches into `core`'s fiber and returns the request it publishes
    /// when it next suspends.
    fn xchg(&mut self, core: usize) -> Req {
        let ch = &self.chans[core];
        // SAFETY: `fiber_rsp` holds the fiber's suspended (or entry)
        // context; everything stays on this OS thread.
        unsafe { fiber::switch(&ch.sched_rsp, ch.fiber_rsp.get()) };
        let fb = self.fibers[core].as_ref().expect("fiber not spawned");
        assert!(fb.canary_ok(), "fiber stack overflow on core {core}");
        ch.req
            .take()
            .expect("fiber suspended without publishing a request")
    }
}

#[cfg(target_arch = "x86_64")]
impl Link for FiberLink {
    fn spawn(&mut self, core: usize, tid: usize, t0: u64, prog: Program) -> Req {
        let ch_ptr: *const Chan = &*self.chans[core];
        let entry: Box<dyn FnOnce()> = Box::new(move || {
            let fin = run_program(prog, core, tid, t0, Port::Fiber(ch_ptr));
            // SAFETY: single OS thread; the pump is suspended.
            let ch = unsafe { &*ch_ptr };
            ch.req.set(Some(fin));
            loop {
                // SAFETY: the pump context is valid; it never resumes a
                // retired fiber, so this parks the stack permanently.
                unsafe { fiber::switch(&ch.fiber_rsp, ch.sched_rsp.get()) };
            }
        });
        let (fb, entry_ctx) = fiber::Fiber::new(fiber::DEFAULT_STACK, entry);
        self.chans[core].fiber_rsp.set(entry_ctx);
        self.fibers[core] = Some(fb);
        self.xchg(core)
    }

    fn resume(&mut self, core: usize, resp: Resp) -> Req {
        self.chans[core].resp.set(resp);
        self.xchg(core)
    }
}

/// A program's end of its [`Link`].
enum Port {
    /// Thread link: requests out, responses in.
    Thread(mpsc::Sender<Req>, mpsc::Receiver<Resp>),
    /// Fiber link: a request is a stack switch into the pump. The pointer
    /// is to the link-owned [`Chan`]; fiber contexts never leave the
    /// pump's OS thread.
    #[cfg(target_arch = "x86_64")]
    Fiber(*const Chan),
}

/// The per-thread handle programs use to touch simulated memory.
pub struct SimCtx {
    core: usize,
    /// Logical thread id (dense over the *application* threads; the
    /// bootstrap core reuses id 0 but runs alone).
    tid: usize,
    local_time: u64,
    port: Port,
}

impl SimCtx {
    /// Sends `req` to the pump and blocks this simulated thread until
    /// the response arrives.
    fn request(&mut self, req: Req) -> Resp {
        match &self.port {
            Port::Thread(tx, rx) => match tx.send(req).ok().and_then(|()| rx.recv().ok()) {
                Some(resp) => resp,
                // The pump is unwinding from a panic elsewhere: unwind this
                // program too, so its thread can be joined.
                None => resume_unwind(Box::new("simulated machine torn down")),
            },
            #[cfg(target_arch = "x86_64")]
            Port::Fiber(ch) => fiber_request(*ch, req),
        }
    }

    fn roundtrip(&mut self, op: OpKind) -> Resp {
        let resp = self.request(Req::Op {
            at: self.local_time,
            op,
        });
        match resp {
            Resp::Val { now, .. } | Resp::Aborted { now, .. } => self.local_time = now,
        }
        resp
    }

    fn infallible(&mut self, op: OpKind) -> u64 {
        match self.roundtrip(op) {
            Resp::Val { v, .. } => v,
            Resp::Aborted { .. } => {
                panic!(
                    "abort delivered outside a transaction (use the tx_* API inside transactions)"
                )
            }
        }
    }

    fn fallible(&mut self, op: OpKind) -> TxResult<u64> {
        match self.roundtrip(op) {
            Resp::Val { v, .. } => Ok(v),
            Resp::Aborted { status, .. } => Err(Abort { status }),
        }
    }

    /// The simulated core this thread is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Blocks until a `TickGate` component (see
    /// `MachineConfig::components`) releases this core's next tick, or
    /// consumes a banked release immediately. The pacing primitive for
    /// timer-driven consumers and DMA-style bulk producers. Not allowed
    /// inside a transaction; a run that waits with no gate firings left
    /// fails the deadlock assertion with a hint rather than hanging.
    pub fn wait_tick(&mut self) {
        self.infallible(OpKind::WaitTick);
    }

    /// Blocks until every live application thread has reached a barrier;
    /// all participants resume with the same (maximal) local time. Useful
    /// for phased benchmark workloads (pre-fill, then measure). Do not mix
    /// barriers with threads that finish before reaching them.
    pub fn barrier(&mut self) {
        match self.request(Req::Barrier {
            at: self.local_time,
        }) {
            Resp::Val { now, .. } => self.local_time = now,
            Resp::Aborted { .. } => panic!("barrier inside a transaction"),
        }
    }
}

impl absmem::ThreadCtx for SimCtx {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn read(&mut self, a: u64) -> u64 {
        self.infallible(OpKind::Read(a))
    }

    fn write(&mut self, a: u64, v: u64) {
        self.infallible(OpKind::Write(a, v));
    }

    fn cas(&mut self, a: u64, old: u64, new: u64) -> bool {
        self.infallible(OpKind::Cas(a, old, new)) == 1
    }

    fn faa(&mut self, a: u64, v: u64) -> u64 {
        self.infallible(OpKind::Faa(a, v))
    }

    fn swap(&mut self, a: u64, v: u64) -> u64 {
        self.infallible(OpKind::Swap(a, v))
    }

    fn delay(&mut self, cycles: u64) {
        self.infallible(OpKind::Delay(cycles));
    }

    fn alloc(&mut self, words: usize) -> u64 {
        match self.request(Req::Alloc {
            at: self.local_time,
            words,
        }) {
            Resp::Val { v, now } => {
                self.local_time = now;
                v
            }
            Resp::Aborted { .. } => panic!("alloc inside a transaction"),
        }
    }

    fn free(&mut self, a: u64, words: usize) {
        match self.request(Req::Free {
            at: self.local_time,
            addr: a,
            words,
        }) {
            Resp::Val { now, .. } => self.local_time = now,
            Resp::Aborted { .. } => panic!("free inside a transaction"),
        }
    }

    fn now(&self) -> u64 {
        self.local_time
    }

    fn barrier(&mut self) {
        SimCtx::barrier(self)
    }

    fn wait_tick(&mut self) {
        SimCtx::wait_tick(self)
    }
}

impl HtmOps for SimCtx {
    fn tx_begin(&mut self) -> TxResult<()> {
        self.fallible(OpKind::TxBegin).map(|_| ())
    }

    fn tx_end(&mut self) -> TxResult<()> {
        self.fallible(OpKind::TxEnd).map(|_| ())
    }

    fn tx_abort(&mut self, code: u8) -> Abort {
        match self.fallible(OpKind::TxAbort(code)) {
            Err(a) => a,
            Ok(_) => unreachable!("xabort committed"),
        }
    }

    fn tx_read(&mut self, a: u64) -> TxResult<u64> {
        self.fallible(OpKind::Read(a))
    }

    fn tx_write(&mut self, a: u64, v: u64) -> TxResult<()> {
        self.fallible(OpKind::Write(a, v)).map(|_| ())
    }

    fn tx_delay(&mut self, cycles: u64) -> TxResult<()> {
        self.fallible(OpKind::Delay(cycles)).map(|_| ())
    }
}

/// The simulated multicore machine.
///
/// Owns the simulated-memory allocator (per-core thread caches, each
/// holding the shared pool), so repeated [`Machine::run`] calls on one
/// machine reuse the allocator state instead of rebuilding it per phase.
/// The configuration is behind an `Arc` and shared with the engine
/// rather than cloned.
pub struct Machine {
    cfg: Arc<MachineConfig>,
    alloc_caches: Vec<ThreadCache>,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let cfg = Arc::new(cfg);
        let pool = Arc::new(WordPool::new(8));
        // +1 for the bootstrap core used by the setup phase.
        let alloc_caches: Vec<ThreadCache> = (0..=cfg.cores).map(|_| pool.thread_cache()).collect();
        Machine { cfg, alloc_caches }
    }

    /// Runs `setup` to completion on the bootstrap core (socket 0), then
    /// runs all `programs` concurrently, program `i` pinned to core `i`.
    /// Returns the run report; per-program results travel through whatever
    /// shared state the caller captured in the closures. A program panic
    /// is re-raised here with the program's own payload.
    pub fn run(&mut self, setup: Program, programs: Vec<Program>) -> RunReport {
        #[cfg(target_arch = "x86_64")]
        let run_on_link = Machine::run_on_fibers;
        #[cfg(not(target_arch = "x86_64"))]
        let run_on_link = Machine::run_on_threads;
        run_on_link(self, setup, programs)
    }

    /// The two phases of a run, pumped over `link`.
    fn run_on(
        &mut self,
        link: &mut impl Link,
        setup: Program,
        programs: Vec<Program>,
    ) -> RunReport {
        let nprogs = programs.len();
        assert!(
            nprogs <= self.cfg.cores,
            "more programs ({}) than cores ({})",
            nprogs,
            self.cfg.cores
        );
        let mut pump = Pump {
            sim: Sim::new(Arc::clone(&self.cfg)),
            alloc_caches: std::mem::take(&mut self.alloc_caches),
            live: 0,
            barrier: Vec::new(),
            pending: VecDeque::new(),
            core_end: vec![0; self.cfg.cores + 1],
        };

        // Phase 1: bootstrap/setup program, alone on the machine.
        pump.run_phase(link, self.cfg.cores, vec![setup], 0);

        // Phase 2: the measured programs, all starting at the same
        // simulated instant.
        let t0 = pump.sim.now();
        pump.run_phase(link, 0, programs, t0);
        assert!(
            pump.barrier.is_empty(),
            "threads stuck at a barrier at shutdown"
        );

        // Reclaim the allocator caches for the next run.
        self.alloc_caches = std::mem::take(&mut pump.alloc_caches);
        pump.core_end.truncate(nprogs);
        RunReport {
            end_time: pump.sim.now(),
            core_end: pump.core_end,
            stats: std::mem::take(&mut pump.sim.stats),
            trace: std::mem::take(&mut pump.sim.trace),
        }
    }

    /// A run on the fiber link, all on the calling thread.
    #[cfg(target_arch = "x86_64")]
    fn run_on_fibers(&mut self, setup: Program, programs: Vec<Program>) -> RunReport {
        let slots = self.cfg.cores + 1;
        let mut link = FiberLink {
            chans: (0..slots)
                .map(|_| {
                    Box::new(Chan {
                        req: Cell::new(None),
                        resp: Cell::new(Resp::Val { v: 0, now: 0 }),
                        sched_rsp: Cell::new(std::ptr::null_mut()),
                        fiber_rsp: Cell::new(std::ptr::null_mut()),
                    })
                })
                .collect(),
            fibers: (0..slots).map(|_| None).collect(),
        };
        let mut report = self.run_on(&mut link, setup, programs);

        // Scheduler-footprint accounting: the total stack reservation.
        // Like `Stats::events` it describes the host, not the protocol,
        // and stays out of every determinism fingerprint.
        let spawned = link.fibers.iter().flatten().count() as u64;
        report.stats.stack_bytes_total = spawned * fiber::DEFAULT_STACK as u64;
        report
    }

    /// A run on the thread link, one scoped OS thread per core.
    fn run_on_threads(&mut self, setup: Program, programs: Vec<Program>) -> RunReport {
        let slots = self.cfg.cores + 1;
        std::thread::scope(|scope| {
            let mut link = ThreadLink {
                scope,
                cores: (0..slots).map(|_| None).collect(),
            };
            self.run_on(&mut link, setup, programs)
        })
    }
}

/// Test-only access to the thread link, so the cross-link differential
/// suites can run it on targets whose [`Machine::run`] uses fibers. Not
/// part of the public API.
#[doc(hidden)]
pub mod testhooks {
    use super::{Machine, Program, RunReport};

    /// [`Machine::run`] on the thread link.
    pub fn run_on_threads(m: &mut Machine, setup: Program, programs: Vec<Program>) -> RunReport {
        m.run_on_threads(setup, programs)
    }
}
