//! The simulator workloads: faa-contended (Figure 1), sbq-producer
//! (Figure 5) and numa88-mixed (the 88-core cross-socket shape).
//!
//! A repetition builds the thread programs, a machine, and runs it. The
//! measured phase starts when the first simulated core passes the start
//! barrier — the programs note that host instant — and ends when the run
//! returns; everything before it, the queue prefill included, is set-up.
//! Simulated results are deterministic, so every repetition of a seed
//! must reproduce the first one exactly; a difference counts as a failure.

use crate::stats::median;
use crate::tracer::Tracer;
use crate::workload::{layer_median, seeded_counts, Rep, Sizes, Tally, Workload};
use absmem::ThreadCtx;
use bench::workload::{numa_workload, paper_workload, NumaShape, WorkloadKind};
use coherence::sim::{OpKind, OpOutcome, Sim};
use coherence::{cycles_to_ns, Machine, MachineConfig, Program, RunReport, SimCtx};
use harness::{
    dequeue_multiset, enqueue_multiset, history_value, record_history, Backend, DriveSpec,
    QueueAdapter, QueueKind, QueueParams, SbqHtmQ, SimBackend,
};
use simalloc::WordPool;
use simrng::SimRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
const ENQ: usize = 0;
const DEQ: usize = 1;
const FAA: usize = 2;

/// Simulator counters the layer metrics are built from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SimCounters {
    events: u64,
    msgs: u64,
    stalls: u64,
    fast_hits: u64,
    fast_fallbacks: u64,
    hops_intra: u64,
    hops_cross: u64,
    tx_commits: u64,
    tx_aborts: u64,
    tripped: u64,
    stack_bytes: u64,
    end_time: u64,
}

impl SimCounters {
    fn of(r: &RunReport) -> SimCounters {
        let s = &r.stats;
        SimCounters {
            events: s.events,
            msgs: s.msgs().map(|(_, n)| n).sum(),
            stalls: s.stalls,
            fast_hits: s.fastpath_hits,
            fast_fallbacks: s.fastpath_fallbacks,
            hops_intra: s.hops_intra,
            hops_cross: s.hops_cross,
            tx_commits: s.tx_commits,
            tx_aborts: s.tx_aborts(),
            tripped: s.tripped_writers,
            stack_bytes: s.stack_bytes_total,
            end_time: r.end_time,
        }
    }

    /// The counts accrued after `before`, a run of the same inputs that
    /// stopped at the start barrier.
    fn since(self, before: SimCounters) -> SimCounters {
        SimCounters {
            events: self.events - before.events,
            msgs: self.msgs - before.msgs,
            stalls: self.stalls - before.stalls,
            fast_hits: self.fast_hits - before.fast_hits,
            fast_fallbacks: self.fast_fallbacks - before.fast_fallbacks,
            hops_intra: self.hops_intra - before.hops_intra,
            hops_cross: self.hops_cross - before.hops_cross,
            tx_commits: self.tx_commits - before.tx_commits,
            tx_aborts: self.tx_aborts - before.tx_aborts,
            tripped: self.tripped - before.tripped,
            ..self
        }
    }
}

/// What one simulated thread measured after the start barrier.
#[derive(Default)]
struct ThreadOut {
    /// FAA results, or the values dequeued.
    values: Vec<u64>,
    /// Producer thread id and elements it enqueued in total, prefill
    /// included.
    enqueued: Option<(usize, u64)>,
    /// Simulated latencies in cycles, by [`ENQ`], [`DEQ`] and [`FAA`].
    lat: [Vec<u64>; 3],
    empty_deqs: u64,
}

/// State shared by one run's programs and the repetition that built
/// them.
#[derive(Default)]
struct Shared {
    base: AtomicU64,
    /// Host instant at which the first core passed the start barrier.
    past: OnceLock<Instant>,
    outs: Mutex<Vec<ThreadOut>>,
}

impl Shared {
    fn passed_barrier(&self) {
        self.past.get_or_init(Instant::now);
    }

    fn submit(&self, out: ThreadOut) {
        self.outs.lock().expect("a program panicked").push(out);
    }

    fn take(&self) -> Vec<ThreadOut> {
        std::mem::take(&mut *self.outs.lock().expect("a program panicked"))
    }

    fn past(&self) -> Instant {
        *self
            .past
            .get()
            .expect("the start barrier released every core")
    }
}

/// The simulated outcome of one repetition: identical for every
/// repetition of a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimOut {
    counters: SimCounters,
    /// Sorted simulated latencies, cycles, by [`ENQ`], [`DEQ`], [`FAA`].
    lat: [Vec<u64>; 3],
    empty_deqs: u64,
    ops: u64,
}

impl SimOut {
    fn new(report: &RunReport, outs: &[ThreadOut]) -> SimOut {
        let mut lat: [Vec<u64>; 3] = Default::default();
        for (k, l) in lat.iter_mut().enumerate() {
            *l = outs.iter().flat_map(|o| o.lat[k].iter().copied()).collect();
            l.sort_unstable();
        }
        SimOut {
            counters: SimCounters::of(report),
            ops: lat.iter().map(|l| l.len() as u64).sum(),
            lat,
            empty_deqs: outs.iter().map(|o| o.empty_deqs).sum(),
        }
    }
}

/// Nearest-rank `q`-quantile of sorted cycles, in simulated ns (0 when
/// empty).
fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    cycles_to_ns(sorted[rank - 1])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Keeps the first repetition's simulated outcome and fails any later one
/// that differs from it.
fn observe(first: &mut Option<SimOut>, out: SimOut, tally: &mut Tally) {
    match first {
        None => *first = Some(out),
        Some(f) => tally.check(out.ops, *f == out),
    }
}

/// Layer metrics shared by the simulator workloads. `before` is the
/// counter state at the start barrier.
fn sim_layers(first: &SimOut, before: SimCounters, traced: &[Rep]) -> Vec<(&'static str, f64)> {
    let c = first.counters.since(before);
    let per_op = |x: u64| ratio(x, first.ops);
    let ns_per_event: Vec<f64> = traced
        .iter()
        .map(|r| r.measured_ns as f64 / c.events.max(1) as f64)
        .collect();
    let all: Vec<u64> = {
        let mut v: Vec<u64> = first.lat.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    };
    vec![
        ("coherence.machine.host_ns_per_event", median(&ns_per_event)),
        (
            "coherence.machine.setup_ms",
            layer_median(traced, "coherence.machine.setup_ms"),
        ),
        ("coherence.events_per_op", per_op(c.events)),
        ("coherence.msgs_per_op", per_op(c.msgs)),
        ("coherence.stalls_per_op", per_op(c.stalls)),
        (
            "coherence.fastpath_hit_ratio",
            ratio(c.fast_hits, c.fast_hits + c.fast_fallbacks),
        ),
        (
            "coherence.hops_cross_share",
            ratio(c.hops_cross, c.hops_intra + c.hops_cross),
        ),
        ("coherence.stack_mib", c.stack_bytes as f64 / MIB),
        (
            "htm.commit_ratio",
            ratio(c.tx_commits, c.tx_commits + c.tx_aborts),
        ),
        ("htm.aborts_per_op", per_op(c.tx_aborts)),
        ("htm.tripped_writers_per_op", per_op(c.tripped)),
        ("sim.op_p50_ns", quantile_ns(&all, 0.5)),
        ("sim.op_p99_ns", quantile_ns(&all, 0.99)),
        ("sbq.enq_p50_ns", quantile_ns(&first.lat[ENQ], 0.5)),
        ("sbq.enq_p99_ns", quantile_ns(&first.lat[ENQ], 0.99)),
        ("sbq.deq_p50_ns", quantile_ns(&first.lat[DEQ], 0.5)),
        ("sbq.deq_p99_ns", quantile_ns(&first.lat[DEQ], 0.99)),
        (
            "sbq.deq_empty_share",
            ratio(first.empty_deqs, first.lat[DEQ].len() as u64),
        ),
    ]
}

/// Deterministic outputs printed with every simulator run.
fn sim_counters(first: &Option<SimOut>) -> Vec<(&'static str, f64, &'static str)> {
    let Some(f) = first else { return Vec::new() };
    let mut all: Vec<u64> = f.lat.iter().flatten().copied().collect();
    all.sort_unstable();
    vec![
        ("sim.events", f.counters.events as f64, "count"),
        ("sim.end_cycles", f.counters.end_time as f64, "cycles"),
        ("sim.op_p50_ns", quantile_ns(&all, 0.5), "ns"),
        ("sim.op_p99_ns", quantile_ns(&all, 0.99), "ns"),
    ]
}

fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// faa-contended: 8 simulated cores each FAA one shared word, Figure 1's
/// fully contended case. No operation takes the fast path.
pub struct FaaContended {
    cfg: MachineConfig,
    counts: Vec<u64>,
    first: Option<SimOut>,
}

impl FaaContended {
    pub fn new(seed: u64, sizes: &Sizes) -> FaaContended {
        let mut cfg = MachineConfig::single_socket(8);
        cfg.check_invariants = false;
        cfg.seed = seed;
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0faa_0faa);
        FaaContended {
            counts: seeded_counts(&mut rng, cfg.cores, sizes.faa_ops),
            cfg,
            first: None,
        }
    }

    fn programs(&self, counts: &[u64]) -> (Program, Vec<Program>, Arc<Shared>) {
        let sh = Arc::new(Shared::default());
        let programs = counts
            .iter()
            .map(|&n| {
                let sh = Arc::clone(&sh);
                Box::new(move |ctx: &mut SimCtx| {
                    let a = sh.base.load(SeqCst);
                    ctx.barrier();
                    sh.passed_barrier();
                    let mut out = ThreadOut {
                        values: Vec::with_capacity(n as usize),
                        ..ThreadOut::default()
                    };
                    out.lat[FAA].reserve(n as usize);
                    for _ in 0..n {
                        let t = ctx.now();
                        out.values.push(ctx.faa(a, 1));
                        out.lat[FAA].push(ctx.now() - t);
                    }
                    sh.submit(out);
                }) as Program
            })
            .collect();
        let s2 = Arc::clone(&sh);
        let setup: Program = Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            s2.base.store(a, SeqCst);
        });
        (setup, programs, sh)
    }
}

/// True iff the FAA results are exactly `0..total`, each once.
fn faa_values_ok<'a>(values: impl Iterator<Item = &'a u64>, total: u64) -> bool {
    let mut seen = vec![false; total as usize];
    let mut n = 0u64;
    for &v in values {
        match seen.get_mut(v as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
        n += 1;
    }
    n == total
}

/// The engine-only replay of faa-contended: the same operation stream
/// driven straight through `Sim::new` / `submit_op` / `step` / `resumes`
/// with no fibers, in the order the machine's scheduler admits it.
struct Replay {
    events: u64,
    end_time: u64,
    values: Vec<u64>,
    /// Host time from the start-barrier release to the end.
    measured_ns: u64,
}

fn replay_faa(cfg: &MachineConfig, counts: &[u64]) -> Replay {
    let cfg = Arc::new(cfg.clone());
    // The machine's allocator, so the shared word gets the same address.
    let pool = Arc::new(WordPool::new(8));
    let mut caches: Vec<_> = (0..=cfg.cores).map(|_| pool.thread_cache()).collect();
    let mut sim = Sim::new(Arc::clone(&cfg));

    // Phase 1, the setup program alone on the bootstrap core: an
    // allocation served inline, then one store, stepped until it resumes.
    let boot = cfg.cores;
    let a = caches[boot].alloc(1);
    sim.submit_op(boot, cfg.alloc_cycles, OpKind::Write(a, 0));
    while sim.resumes.is_empty() {
        assert!(sim.step(), "replay: the setup store never completed");
    }
    let setup_done: Vec<usize> = sim.resumes.drain(..).map(|r| r.core).collect();
    assert_eq!(setup_done, [boot], "replay: unexpected setup resumption");

    // Phase 2: every core reaches the start barrier at the same instant
    // and is released in core order; each resumption then admits that
    // core's next FAA until its count is spent.
    let t0 = sim.now();
    let start = Instant::now();
    let mut pending: VecDeque<(usize, u64, Option<u64>)> =
        (0..counts.len()).map(|c| (c, t0, None)).collect();
    let mut left = counts.to_vec();
    let mut live = counts.len();
    let mut values = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
    loop {
        if let Some((core, time, value)) = pending.pop_front() {
            if let Some(v) = value {
                values.push(v);
            }
            if left[core] == 0 {
                live -= 1;
            } else {
                left[core] -= 1;
                sim.submit_op(core, time, OpKind::Faa(a, 1));
            }
            continue;
        }
        if live == 0 {
            break;
        }
        assert!(sim.step(), "replay: live cores but no events");
        pending.extend(sim.resumes.drain(..).map(|r| match r.outcome {
            OpOutcome::Val(v) => (r.core, r.time, Some(v)),
            OpOutcome::Aborted(s) => panic!("replay: FAA aborted with status {s:#x}"),
        }));
    }
    Replay {
        measured_ns: elapsed_ns(start, Instant::now()),
        events: sim.stats.events,
        end_time: sim.now(),
        values,
    }
}

impl Workload for FaaContended {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let (setup, programs, sh) = tr.span("workload.build", |_| self.programs(&self.counts));
        let mut machine = tr.span("Machine::new", |_| Machine::new(self.cfg.clone()));
        let run_start = Instant::now();
        let report = tr.span("Machine::run", |_| machine.run(setup, programs));
        let end = Instant::now();
        let past = sh.past();
        tr.instant("start_barrier", past);

        let outs = sh.take();
        let total: u64 = self.counts.iter().sum();
        let mut tally = Tally::default();
        tally.check(
            total,
            faa_values_ok(outs.iter().flat_map(|o| &o.values), total),
        );
        observe(&mut self.first, SimOut::new(&report, &outs), &mut tally);

        let measured_ns = elapsed_ns(past, end);
        let mut layer = Vec::new();
        if tr.on {
            let r = tr.span("Sim.replay", |_| replay_faa(&self.cfg, &self.counts));
            let same = r.events == report.stats.events
                && r.end_time == report.end_time
                && faa_values_ok(r.values.iter(), total);
            tally.check(total, same);
            layer = vec![
                (
                    "coherence.machine.setup_ms",
                    elapsed_ns(run_start, past) as f64 / 1e6,
                ),
                ("replay_ns", r.measured_ns as f64),
                (
                    "handoff_ns_per_op",
                    (measured_ns as f64 - r.measured_ns as f64) / total as f64,
                ),
            ];
        }
        Rep {
            setup_ns: elapsed_ns(t0, past),
            measured_ns,
            ops: total,
            tally,
            layer,
        }
    }

    fn layers(&self, traced: &[Rep]) -> Vec<(&'static str, f64)> {
        let first = self.first.as_ref().expect("a repetition ran");
        let (setup, programs, _) = self.programs(&vec![0; self.counts.len()]);
        let before = SimCounters::of(&Machine::new(self.cfg.clone()).run(setup, programs));
        let events = first.counters.since(before).events.max(1) as f64;
        let mut out = sim_layers(first, before, traced);
        out.push((
            "coherence.sim.host_ns_per_event",
            layer_median(traced, "replay_ns") / events,
        ));
        out.push((
            "coherence.fiber.handoff_ns_per_op",
            layer_median(traced, "handoff_ns_per_op"),
        ));
        out
    }

    fn counters(&self) -> Vec<(&'static str, f64, &'static str)> {
        sim_counters(&self.first)
    }
}

/// An SBQ-HTM workload on the simulator: sbq-producer (8 producers on an
/// empty queue) or numa88-mixed (44 producers and 44 consumers on two
/// sockets, prefilled queue, interleaved directory homes).
pub struct QueueSim {
    machine: MachineConfig,
    qp: QueueParams,
    producers: usize,
    prefill: u64,
    counts: Vec<u64>,
    check_ops: u64,
    first: Option<SimOut>,
}

impl QueueSim {
    pub fn producer(seed: u64, sizes: &Sizes) -> QueueSim {
        let w = paper_workload(WorkloadKind::ProducerOnly, 8, sizes.producer_ops);
        QueueSim::from_workload(w, seed, sizes.producer_ops, sizes)
    }

    pub fn numa88(seed: u64, sizes: &Sizes) -> QueueSim {
        let w = numa_workload(NumaShape::CrossSplit, 2, 88, sizes.numa_ops);
        QueueSim::from_workload(w, seed, sizes.numa_ops, sizes)
    }

    /// The seed drives the machine's delay jitter, so it changes the
    /// schedule while every core's operation count stays fixed.
    fn from_workload(
        mut w: bench::workload::Workload,
        seed: u64,
        ops: u64,
        sizes: &Sizes,
    ) -> QueueSim {
        w.machine.seed = seed;
        let counts = vec![ops; w.producers + w.consumers];
        let prefill = match w.kind {
            WorkloadKind::ProducerOnly => 0,
            _ => w.prefill_per_producer,
        };
        let supply: u64 = counts[..w.producers].iter().map(|c| c + prefill).sum();
        let demand: u64 = counts[w.producers..].iter().sum();
        assert!(
            supply >= demand,
            "consumers would wait for elements forever"
        );
        QueueSim {
            machine: w.machine,
            qp: w.qp,
            producers: w.producers,
            prefill,
            counts,
            check_ops: sizes.check_ops,
            first: None,
        }
    }

    fn programs(&self, counts: &[u64]) -> (Program, Vec<Program>, Arc<Shared>) {
        let sh = Arc::new(Shared::default());
        let programs = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let sh = Arc::clone(&sh);
                let (qp, producer, prefill) = (self.qp, i < self.producers, self.prefill);
                Box::new(move |ctx: &mut SimCtx| {
                    let mut q = SbqHtmQ::<SimCtx>::attach(sh.base.load(SeqCst), ctx, &qp);
                    let tid = ctx.thread_id();
                    let mut seq = 0u64;
                    if producer {
                        for _ in 0..prefill {
                            seq += 1;
                            q.enqueue(ctx, history_value(tid, seq));
                        }
                    }
                    ctx.barrier();
                    sh.passed_barrier();
                    let mut out = ThreadOut::default();
                    if producer {
                        for _ in 0..n {
                            seq += 1;
                            let t = ctx.now();
                            q.enqueue(ctx, history_value(tid, seq));
                            out.lat[ENQ].push(ctx.now() - t);
                        }
                        out.enqueued = Some((tid, seq));
                    } else {
                        while (out.values.len() as u64) < n {
                            let t = ctx.now();
                            let got = q.dequeue(ctx);
                            out.lat[DEQ].push(ctx.now() - t);
                            match got {
                                Some(v) => out.values.push(v),
                                None => out.empty_deqs += 1,
                            }
                        }
                    }
                    sh.submit(out);
                }) as Program
            })
            .collect();
        let (s2, qp) = (Arc::clone(&sh), self.qp);
        let setup: Program = Box::new(move |ctx| {
            s2.base.store(SbqHtmQ::<SimCtx>::create(ctx, &qp), SeqCst);
        });
        (setup, programs, sh)
    }

    /// True iff every dequeued value was enqueued by a producer and no
    /// value came out twice.
    fn dequeues_ok(&self, outs: &[ThreadOut]) -> bool {
        let mut enqueued = vec![0u64; self.producers];
        for &(tid, n) in outs.iter().filter_map(|o| o.enqueued.as_ref()) {
            enqueued[tid] = n;
        }
        let mut values: Vec<u64> = outs.iter().flat_map(|o| o.values.iter().copied()).collect();
        values.sort_unstable();
        let distinct = values.windows(2).all(|w| w[0] != w[1]);
        distinct
            && values.iter().all(|&v| {
                let (tid, seq) = ((v >> 40) as usize, v & ((1 << 40) - 1));
                (1..=self.producers).contains(&tid) && (1..=enqueued[tid - 1]).contains(&seq)
            })
    }
}

impl Workload for QueueSim {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let (setup, programs, sh) = tr.span("workload.build", |_| self.programs(&self.counts));
        let mut backend = tr.span("SimBackend::new", |_| SimBackend::new(self.machine.clone()));
        let run_start = Instant::now();
        let report = tr.span("Backend::run", |_| backend.run(setup, programs));
        let end = Instant::now();
        let past = sh.past();
        tr.instant("start_barrier", past);

        let outs = sh.take();
        let report = report.sim.expect("the simulator backend reports");
        let out = SimOut::new(&report, &outs);
        let mut tally = Tally::default();
        tally.check(out.ops, self.dequeues_ok(&outs));
        let ops = out.ops;
        observe(&mut self.first, out, &mut tally);
        let layer = if tr.on {
            vec![(
                "coherence.machine.setup_ms",
                elapsed_ns(run_start, past) as f64 / 1e6,
            )]
        } else {
            Vec::new()
        };
        Rep {
            setup_ns: elapsed_ns(t0, past),
            measured_ns: elapsed_ns(past, end),
            ops,
            tally,
            layer,
        }
    }

    /// One drained run of the same machine and queue through
    /// `record_history`, checked for linearizability and conservation.
    fn check(&mut self) -> Tally {
        let ops: Vec<Vec<bool>> = (0..self.counts.len())
            .map(|i| vec![i < self.producers; self.check_ops as usize])
            .collect();
        let mut backend = SimBackend::new(self.machine.clone());
        let out = record_history(
            &mut backend,
            QueueKind::SbqHtm,
            DriveSpec::new(self.qp, ops, true),
        );
        let h = &out.history;
        let ok = linearize::check_queue_linearizable(h).is_ok()
            && dequeue_multiset(h) == enqueue_multiset(h);
        let mut tally = Tally::default();
        tally.check(h.len() as u64, ok);
        tally
    }

    fn layers(&self, traced: &[Rep]) -> Vec<(&'static str, f64)> {
        let first = self.first.as_ref().expect("a repetition ran");
        let (setup, programs, _) = self.programs(&vec![0; self.counts.len()]);
        let report = SimBackend::new(self.machine.clone()).run(setup, programs);
        let before = SimCounters::of(&report.sim.expect("the simulator backend reports"));
        sim_layers(first, before, traced)
    }

    fn counters(&self) -> Vec<(&'static str, f64, &'static str)> {
        sim_counters(&self.first)
    }
}

/// Host ns per fiber switch: a ping-pong between this thread and one
/// fiber over `coherence::fiber`, two switches per round trip.
#[cfg(target_arch = "x86_64")]
pub fn fiber_switch_ns(round_trips: u64) -> f64 {
    use coherence::fiber::{switch, Fiber, DEFAULT_STACK};
    use std::cell::Cell;
    use std::rc::Rc;

    let main_ctx = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
    let fiber_ctx = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
    let (m, f) = (Rc::clone(&main_ctx), Rc::clone(&fiber_ctx));
    // The fiber never returns; it is dropped suspended at the end, which
    // leaks only its two `Rc` clones.
    let (fiber, entry) = Fiber::new(
        DEFAULT_STACK,
        Box::new(move || loop {
            // SAFETY: `m` holds the context the probe saved when it
            // switched in, on this same thread.
            unsafe { switch(&f, m.get()) };
        }),
    );
    fiber_ctx.set(entry);
    let start = Instant::now();
    for _ in 0..round_trips {
        // SAFETY: `fiber_ctx` holds the fiber's entry context or the one
        // it saved when it last switched out; its stack lives in `fiber`
        // until this function returns, and everything stays on this
        // thread.
        unsafe { switch(&main_ctx, fiber_ctx.get()) };
    }
    let ns = elapsed_ns(start, Instant::now()) as f64;
    assert!(fiber.canary_ok(), "the probe fiber overflowed its stack");
    ns / (2 * round_trips) as f64
}

#[cfg(not(target_arch = "x86_64"))]
pub fn fiber_switch_ns(_round_trips: u64) -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_machine_run_exactly() {
        let w = FaaContended::new(5, &Sizes::TINY);
        let (setup, programs, sh) = w.programs(&w.counts);
        let report = Machine::new(w.cfg.clone()).run(setup, programs);
        let r = replay_faa(&w.cfg, &w.counts);
        assert_eq!(r.events, report.stats.events);
        assert_eq!(r.end_time, report.end_time);
        let mut machine_values: Vec<u64> = sh
            .take()
            .iter()
            .flat_map(|o| o.values.iter().copied())
            .collect();
        let mut replay_values = r.values;
        machine_values.sort_unstable();
        replay_values.sort_unstable();
        assert_eq!(machine_values, replay_values);
    }

    #[test]
    fn faa_check_rejects_duplicates_and_gaps() {
        assert!(faa_values_ok([2, 0, 1].iter(), 3));
        assert!(!faa_values_ok([0, 0, 1].iter(), 3));
        assert!(!faa_values_ok([0, 1].iter(), 3));
        assert!(!faa_values_ok([0, 1, 3].iter(), 3));
    }

    #[test]
    fn fiber_probe_measures_a_positive_switch_cost() {
        assert!(fiber_switch_ns(1_000) > 0.0);
    }
}
